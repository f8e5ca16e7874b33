// The bytecode execution tier: a register VM over the code produced by
// Lowerer, implementing the same Engine contract as the tree-walking
// interpreter with bit-identical modeled cycles, statement counts, obs events
// and fault reports (the interpreter remains the differential oracle).
//
// Calls go through Engine's shared protocol (BeginCall/PushFrame/SpillParams
// on kCall, PopFrame/EndCall on kRet). What the VM adds is the explicit frame
// stack: each VFrame pairs Engine's frame record with the caller's register
// window and return pc, and Unwind pops whatever an abort leaves on it.
//
// Dispatch is direct-threaded (computed goto). Each memory instruction owns
// a two-way MPU verdict cache slot: after a successful access to plain
// memory whose verdict is an allow, the uniform-verdict interval around the
// address (Mpu::AllowedRange, clipped to the backing store) is
// cached together with the backing kind under the (Mpu::region_set(),
// privilege) pair it was decided for; later
// executions of the same instruction landing anywhere inside the interval
// under that same pair skip the shared bus/MPU path and touch the backing
// store directly (plus the identical memory-cycle charge). Intervals span
// whole (sub-)regions, so streaming accesses that walk an array stay cached
// instead of missing at every 32-byte window. Region-set ids name register
// contents and are never reused, so a verdict stays valid across operation
// switches: when an operation re-enters its region set, its verdicts hit
// again. The two ways (most recently used first) keep an instruction shared
// by two operations cached under both of their sets. A hit on way 0 is
// inline in each memory handler: one fixed-width backing access and the
// memory charge. Everything else is the out-of-line miss, which probes way
// 1, then checks for plain memory before looking the verdict up: device and
// PPB accesses, which are never cached, go straight to the shared path
// without a lookup.

#ifndef SRC_RT_BYTECODE_VM_H_
#define SRC_RT_BYTECODE_VM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/rt/bytecode/bytecode.h"
#include "src/rt/engine.h"

namespace opec_rt {
namespace bytecode {

class VM : public Engine {
 public:
  VM(opec_hw::Machine& machine, const opec_ir::Module& module,
     const AddressAssignment& layout, Supervisor* supervisor = nullptr);

  // The lowered module (lowering happens lazily at first Run). For tests and
  // disassembly.
  const BytecodeModule& Bytecode();
  // Whether a lowered module is installed yet (lowering is lazy).
  bool lowered() const { return bc_ != nullptr; }

  // Hands this VM's lowered module, if any, to `next`: a fresh VM over the
  // same module and layout (AppRun::RestoreBoot), which then runs without
  // lowering again. The module is shared, not copied, and `next`'s verdict
  // cache starts empty.
  void ShareBytecode(VM& next) const;

 private:
  // One active call frame. Registers live in one preallocated file; each
  // frame's window starts where its caller's ends, so pointers stay stable
  // for the whole run.
  struct VFrame {
    Frame frame;
    uint32_t return_pc = 0;
    uint32_t reg_base = 0;
    uint16_t ret_dst = 0;  // caller register receiving the return value
    int op_id = -1;        // operation the call entered, -1 for a plain call
  };

  // One way of a per-instruction MPU verdict cache slot: an allow interval
  // [lo, hi] (inclusive, already clipped to the backing store) valid under
  // one VerdictKey(). Key 0 never matches (region-set ids start at 1).
  struct VCache {
    uint64_t key = 0;
    uint32_t lo = 0;
    uint32_t hi = 0;
    uint8_t backing = 0;  // 0 = SRAM, 1 = flash (loads only)
  };
  // Two ways, way[0] most recently used.
  struct VSlot {
    VCache way[2];
  };

  void EnsureLowered();
  // Installs a lowered module and sizes the per-instruction and per-frame
  // state for it.
  void Install(std::shared_ptr<const BytecodeModule> bc);
  uint32_t Execute(const opec_ir::Function* entry, const std::vector<uint32_t>& args) override;
  void Unwind() override;

  // kCall/kCallInd: gathers the argument registers, then runs the shared
  // call protocol and enters the callee. The kRet handler is the mirror.
  void EnterCall(const Insn& ins, const opec_ir::Function* fn, uint32_t ret_pc,
                 const uint32_t* R);
  // Pushes the VFrame for a frame PushFrame just entered; its register window
  // starts where the caller's ends.
  void PushVFrame(const Frame& frame, uint32_t return_pc, uint16_t ret_dst, int op_id);

  // (region set << 1) | privilege: the context a cached verdict holds for.
  uint64_t VerdictKey() const;
  // Whether `v`'s interval under `key` covers the access.
  static bool Covers(const VCache& v, uint64_t key, uint32_t addr, uint32_t size) {
    return v.key == key && addr >= v.lo && addr + static_cast<uint64_t>(size) - 1 <= v.hi;
  }
  // Installs a verdict as the slot's most recently used way.
  static void Fill(VSlot& slot, const VCache& v);
  // The memory instructions' accesses: forced inline into each handler, a
  // hit on way 0 under the live key; anything else goes to the out-of-line
  // LoadMiss/StoreMiss.
  [[gnu::always_inline]] uint32_t CachedLoad(uint32_t pc_index, uint32_t addr, uint32_t size);
  [[gnu::always_inline]] void CachedStore(uint32_t pc_index, uint32_t addr, uint32_t size,
                                          uint32_t value);
  uint32_t LoadMiss(VSlot& slot, uint64_t key, uint32_t addr, uint32_t size);
  void StoreMiss(VSlot& slot, uint64_t key, uint32_t addr, uint32_t size, uint32_t value);
  // The raw access and memory charge of an access a verdict covers.
  [[gnu::always_inline]] uint32_t RawLoad(const VCache& v, uint32_t addr, uint32_t size);
  [[gnu::always_inline]] void RawStore(uint32_t addr, uint32_t size, uint32_t value);

  // Replays the accounting script of the instruction at `pc` node by node
  // after its statement batch crossed the limit, reproducing the exact
  // interpreter-side cycle count and statements_ == limit + 1 at the abort.
  [[noreturn]] void ReplayAcct(uint32_t pc);

  std::shared_ptr<const BytecodeModule> bc_;  // null until lowered

  std::vector<VSlot> vcache_;      // one slot per instruction
  std::vector<uint32_t> regs_;     // (kMaxDepth + 1) frame windows
  std::vector<VFrame> frames_;
  std::vector<uint32_t> call_args_;  // scratch; rewritten by OnOperationEnter
};

}  // namespace bytecode
}  // namespace opec_rt

#endif  // SRC_RT_BYTECODE_VM_H_
