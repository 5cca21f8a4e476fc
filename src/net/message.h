// Protocol message taxonomy. One struct covers all message kinds; the
// payload fields used depend on the type (documented per enumerator). This
// mirrors how a real TinyOS packet would carry a small fixed header plus a
// type-specific payload.
#ifndef SNAPQ_NET_MESSAGE_H_
#define SNAPQ_NET_MESSAGE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "net/node_id.h"
#include "net/trace_context.h"

namespace snapq {

/// All message kinds exchanged by the snapshot protocol and the query layer.
enum class MessageType {
  /// Election/maintenance: "I am looking for representatives"; `value` is
  /// the sender's current measurement, `epoch` its election epoch.
  kInvitation,
  /// Election: `ids` is the sender's Cand_nodes list (nodes it can
  /// represent); `aux` is the number of nodes it already represents (used
  /// by maintenance-time scoring, zero during initial discovery).
  kCandList,
  /// Election: sender accepts addressee as its representative.
  kAccept,
  /// Refinement Rule-2: sender tells addressee to stop representing it.
  kRecall,
  /// Refinement Rule-3: sender asks addressee to stay ACTIVE.
  kStayActive,
  /// Representative acknowledgment: `ids` lists all nodes the sender
  /// currently represents (single broadcast replacing per-node acks).
  kRepAck,
  /// Maintenance: passive node reports `value` (its current measurement) to
  /// its representative.
  kHeartbeat,
  /// Maintenance: representative answers a heartbeat with its estimate in
  /// `value`.
  kHeartbeatReply,
  /// Maintenance: a low-energy representative resigns; `ids` lists the
  /// nodes it releases.
  kResign,
  /// A measurement announcement / query response carrying `value`;
  /// snoopable by neighbors for model building.
  kData,
  /// Query layer: request propagated down the routing tree.
  kQueryRequest,
  /// Query layer: (partial) result propagated up the routing tree.
  kQueryReply,
  /// Sentinel — keep last, never sent. Sizes the per-type arrays (metric
  /// counters, loss injection) so adding a message type above cannot
  /// silently truncate them.
  kMessageTypeCount,
};

/// Number of real message types (the sentinel itself excluded).
inline constexpr size_t kNumMessageTypes =
    static_cast<size_t>(MessageType::kMessageTypeCount);

/// Stable name for logging/traces.
const char* MessageTypeName(MessageType type);

/// A radio message. Physically every transmission is a broadcast; `to`
/// narrows the intended recipient (other nodes in range may still snoop).
struct Message {
  MessageType type = MessageType::kData;
  NodeId from = kInvalidNode;
  NodeId to = kBroadcastId;
  /// Election epoch, used to detect spurious (stale) representatives; the
  /// paper suggests time-stamps or a continuous query's epoch-id (§3).
  int64_t epoch = 0;
  double value = 0.0;
  double aux = 0.0;
  std::vector<NodeId> ids;
  /// Parallel to `ids` where present (e.g. kRepAck carries the election
  /// epoch of each represented node for stale-representative cleanup).
  std::vector<int64_t> epochs;
  /// Parallel to `ids` where present (kHeartbeatReply: a representative
  /// answers all of a round's heartbeats with one broadcast carrying each
  /// member's estimate — the same batching §5 applies to acknowledgments).
  std::vector<double> values;
  /// Causal context. Senders normally leave this default-initialized: the
  /// simulator stamps its delivered copy with the message's span so
  /// handlers inherit the sender's trace. Not counted in SizeBytes() —
  /// real deployments ship trace ids only when sampling, and the paper's
  /// byte accounting predates tracing.
  TraceContext trace;

  /// Approximate wire size, for byte-level accounting: a TinyOS-style 7-byte
  /// header + payload (4-byte floats per the paper's cache accounting,
  /// 2-byte node ids).
  size_t SizeBytes() const;

  std::string ToString() const;
};

}  // namespace snapq

#endif  // SNAPQ_NET_MESSAGE_H_
