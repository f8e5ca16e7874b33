#include "src/rt/bytecode/bytecode.h"

namespace opec_rt {
namespace bytecode {

const char* OpName(Op op) {
  switch (op) {
    case Op::kConst:      return "const";
    case Op::kMove:       return "move";
    case Op::kUnary:      return "unary";
    case Op::kBinary:     return "binary";
    case Op::kBinaryImm:  return "binary.imm";
    case Op::kLea:        return "lea";
    case Op::kAddImm:     return "addimm";
    case Op::kIndexAddr:  return "indexaddr";
    case Op::kSext:       return "sext";
    case Op::kAndImm:     return "andimm";
    case Op::kAcct:       return "acct";
    case Op::kDivRem:     return "divrem";
    case Op::kLoadLocal:  return "load.local";
    case Op::kStoreLocal: return "store.local";
    case Op::kLoadAbs:    return "load.abs";
    case Op::kStoreAbs:   return "store.abs";
    case Op::kLoadInd:    return "load.ind";
    case Op::kStoreInd:   return "store.ind";
    case Op::kLoadIdx:    return "load.idx";
    case Op::kStoreIdx:   return "store.idx";
    case Op::kJump:       return "jump";
    case Op::kBrFalse:    return "brfalse";
    case Op::kBrTrue:     return "brtrue";
    case Op::kBrCmpFalse:    return "brcmp.false";
    case Op::kBrCmpTrue:     return "brcmp.true";
    case Op::kBrCmpImmFalse: return "brcmpi.false";
    case Op::kBrCmpImmTrue:  return "brcmpi.true";
    case Op::kCall:       return "call";
    case Op::kCallInd:    return "call.ind";
    case Op::kICallCheck: return "icall.check";
    case Op::kRet:        return "ret";
    case Op::kAbort:      return "abort";
  }
  return "?";
}

}  // namespace bytecode
}  // namespace opec_rt
