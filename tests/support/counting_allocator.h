// Counting replacement for the global allocation operators, shared by the
// *_alloc_test executables. counting_allocator.cc defines every form of
// operator new/delete; each such test compiles it in as a source file
// (see tests/CMakeLists.txt), because replacement operators only take
// effect when they are linked as object files.
#ifndef SNAPQ_TESTS_SUPPORT_COUNTING_ALLOCATOR_H_
#define SNAPQ_TESTS_SUPPORT_COUNTING_ALLOCATOR_H_

#include <cstdint>

namespace snapq {

/// Calls to any form of global operator new since the program started.
uint64_t AllocationCount();

}  // namespace snapq

#endif  // SNAPQ_TESTS_SUPPORT_COUNTING_ALLOCATOR_H_
