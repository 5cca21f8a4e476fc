#include "net/message.h"

#include "common/string_util.h"

namespace snapq {

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kInvitation:
      return "Invitation";
    case MessageType::kCandList:
      return "CandList";
    case MessageType::kAccept:
      return "Accept";
    case MessageType::kRecall:
      return "Recall";
    case MessageType::kStayActive:
      return "StayActive";
    case MessageType::kRepAck:
      return "RepAck";
    case MessageType::kHeartbeat:
      return "Heartbeat";
    case MessageType::kHeartbeatReply:
      return "HeartbeatReply";
    case MessageType::kResign:
      return "Resign";
    case MessageType::kData:
      return "Data";
    case MessageType::kQueryRequest:
      return "QueryRequest";
    case MessageType::kQueryReply:
      return "QueryReply";
    case MessageType::kMessageTypeCount:
      break;  // sentinel, never sent
  }
  return "Unknown";
}

size_t Message::SizeBytes() const {
  constexpr size_t kHeader = 7;  // type + from + to + epoch, packed
  size_t payload = 0;
  switch (type) {
    case MessageType::kInvitation:
    case MessageType::kHeartbeat:
    case MessageType::kData:
      payload = 4;  // one float
      break;
    case MessageType::kHeartbeatReply:
      payload = 1 + 6 * ids.size();  // 2-byte id + 4-byte estimate each
      break;
    case MessageType::kCandList:
      payload = 1 + 2 * ids.size();  // count byte + 2-byte ids
      break;
    case MessageType::kRepAck:
      payload = 1 + 4 * ids.size();  // 2-byte id + 2-byte epoch each
      break;
    case MessageType::kResign:
      payload = 1 + 2 * ids.size();
      break;
    case MessageType::kAccept:
    case MessageType::kRecall:
    case MessageType::kStayActive:
      payload = 0;
      break;
    case MessageType::kQueryRequest:
      payload = 16;  // query descriptor: rect + flags
      break;
    case MessageType::kQueryReply:
      payload = 4 + 2 * ids.size();  // aggregate value + contributor ids
      break;
    case MessageType::kMessageTypeCount:
      break;  // sentinel, never sent
  }
  return kHeader + payload;
}

std::string Message::ToString() const {
  return StrFormat("%s from=%u to=%u epoch=%lld value=%.3f n_ids=%zu",
                   MessageTypeName(type), from, to,
                   static_cast<long long>(epoch), value, ids.size());
}

}  // namespace snapq
