#include "net/msg.hh"

#include "sim/logging.hh"

namespace dsm {

Word
applyOp(AtomicOp op, Word old, Word operand)
{
    switch (op) {
      case AtomicOp::STORE:
      case AtomicOp::FAS:
        return operand;
      case AtomicOp::TAS:
        return 1;
      case AtomicOp::FAA:
        return old + operand;
      case AtomicOp::FAO:
        return old | operand;
      default:
        dsm_panic("applyOp on non-modifying op %s", toString(op));
    }
}

const char *
toString(AtomicOp op)
{
    switch (op) {
      case AtomicOp::LOAD: return "load";
      case AtomicOp::STORE: return "store";
      case AtomicOp::LOAD_EXCL: return "load_exclusive";
      case AtomicOp::DROP_COPY: return "drop_copy";
      case AtomicOp::TAS: return "test_and_set";
      case AtomicOp::FAA: return "fetch_and_add";
      case AtomicOp::FAS: return "fetch_and_store";
      case AtomicOp::FAO: return "fetch_and_or";
      case AtomicOp::CAS: return "compare_and_swap";
      case AtomicOp::LL: return "load_linked";
      case AtomicOp::SC: return "store_conditional";
      case AtomicOp::LLS: return "load_linked_serial";
      case AtomicOp::SCS: return "store_conditional_serial";
    }
    return "?";
}

const char *
toString(MsgType t)
{
    switch (t) {
      case MsgType::GET_S: return "GetS";
      case MsgType::GET_X: return "GetX";
      case MsgType::UPGRADE: return "Upgrade";
      case MsgType::CAS_HOME: return "CasHome";
      case MsgType::SC_REQ: return "ScReq";
      case MsgType::UNC_REQ: return "UncReq";
      case MsgType::UPD_REQ: return "UpdReq";
      case MsgType::WB_DATA: return "WbData";
      case MsgType::DROP_NOTIFY: return "DropNotify";
      case MsgType::DATA_S: return "DataS";
      case MsgType::DATA_X: return "DataX";
      case MsgType::UPG_ACK: return "UpgAck";
      case MsgType::NACK: return "Nack";
      case MsgType::CAS_FAIL: return "CasFail";
      case MsgType::CAS_FAIL_S: return "CasFailS";
      case MsgType::UNC_RESP: return "UncResp";
      case MsgType::UPD_RESP: return "UpdResp";
      case MsgType::SC_RESP: return "ScResp";
      case MsgType::INV: return "Inv";
      case MsgType::UPDATE: return "Update";
      case MsgType::INV_ACK: return "InvAck";
      case MsgType::UPDATE_ACK: return "UpdateAck";
      case MsgType::FWD_GET_S: return "FwdGetS";
      case MsgType::FWD_GET_X: return "FwdGetX";
      case MsgType::FWD_CAS: return "FwdCas";
      case MsgType::OWNER_DATA_S: return "OwnerDataS";
      case MsgType::OWNER_DATA_X: return "OwnerDataX";
      case MsgType::CAS_OWNER_FAIL: return "CasOwnerFail";
      case MsgType::CAS_OWNER_FAIL_S: return "CasOwnerFailS";
      case MsgType::FWD_NACK_RETRY: return "FwdNackRetry";
      case MsgType::FWD_NACK_WB: return "FwdNackWb";
    }
    return "?";
}

unsigned
Msg::sizeBytes() const
{
    // Address-only control messages: 8 bytes of address/command.
    // Operand-carrying requests add one or two words.
    // Data-carrying messages add a full block.
    unsigned base = 8;
    switch (type) {
      case MsgType::UNC_REQ:
      case MsgType::UPD_REQ:
        base += 2 * WORD_BYTES; // operand + expected
        // Serial-number LL/SC grows the message by the counter size
        // (Section 3.1).
        if (op == AtomicOp::LLS || op == AtomicOp::SCS)
            base += WORD_BYTES;
        break;
      case MsgType::CAS_HOME:
      case MsgType::FWD_CAS:
        base += 2 * WORD_BYTES; // operand + expected
        break;
      case MsgType::SC_REQ:
      case MsgType::UPGRADE:
      case MsgType::UPDATE:
      case MsgType::UNC_RESP:
      case MsgType::UPD_RESP:
      case MsgType::SC_RESP:
        base += WORD_BYTES;
        break;
      default:
        break;
    }
    if (has_data)
        base += BLOCK_BYTES;
    return base;
}

std::uint32_t
Msg::computeChecksum() const
{
    // FNV-1a over the protocol-visible fields. Strong enough to detect
    // the injected single-bit flips deterministically; the metadata
    // fields (trace/txn ids, seq, attempt, prio, qdepth, fault flags)
    // ride outside the checksummed payload by design.
    std::uint32_t h = 2166136261u;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= static_cast<std::uint32_t>(v & 0xffu);
            h *= 16777619u;
            v >>= 8;
        }
    };
    mix(static_cast<std::uint64_t>(type));
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(src)));
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(dst)));
    mix(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(requester)));
    mix(addr);
    mix(word_addr);
    mix(static_cast<std::uint64_t>(op));
    mix(value);
    mix(expected);
    mix(result);
    mix(success ? 1 : 0);
    mix(serial);
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(
        ack_count)));
    mix(has_data ? 1 : 0);
    if (has_data)
        for (Word w : data)
            mix(w);
    return h;
}

} // namespace dsm
