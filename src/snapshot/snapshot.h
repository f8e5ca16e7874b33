// Machine snapshot/restore (DESIGN.md §13).
//
// A Snapshot is a versioned container of named sections, each holding one
// component's serialized state in the src/hw/state_io.h wire format:
//
//   "machine"  — cycles, privilege, MPU region registers, bus/peripherals
//   "monitor"  — operation context stack, SRD, round-robin cursor, stats
//   "engine"   — SP, depth, active operation, statement + entry counters
//
// Sections are tagged by name so a reader can skip or reject components it
// does not know; field layout *inside* a section is position-based and owned
// by that component's SaveState/LoadState pair. The container stamps a magic
// and a format version — bumping any section's field layout bumps kVersion.
//
// Restore() only makes sense into objects of the same provenance: the same
// board (flash/SRAM sizes checked by Bus::LoadState), the same module
// (entry-count table checked by Engine::LoadState), the same policy
// (the monitor's policy is immutable compile output and is not serialized).
// Cross-provenance restores fail an OPEC_CHECK rather than corrupting state.
//
// Every Snapshot also carries a process-unique image id, assigned when it is
// captured or deserialized and never serialized. Restore() hands it to the
// bus, which copies back only the pages written since memory last matched
// that image and every page otherwise (DESIGN.md §13.3). Warm-start campaigns
// rewind this way; `--snapshot-dir` writes full containers (WriteFile).

#ifndef SRC_SNAPSHOT_SNAPSHOT_H_
#define SRC_SNAPSHOT_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/hw/state_io.h"

namespace opec_hw {
class Machine;
}
namespace opec_monitor {
class Monitor;
}
namespace opec_rt {
class Engine;
}

namespace opec_snapshot {

class Snapshot {
 public:
  static constexpr uint32_t kMagic = 0x4E53504Fu;  // "OPSN" little-endian
  static constexpr uint32_t kVersion = 1;

  // Section names (stable identifiers, part of the wire format).
  static constexpr const char* kMachineSection = "machine";
  static constexpr const char* kMonitorSection = "monitor";
  static constexpr const char* kEngineSection = "engine";

  Snapshot() = default;

  // Captures the machine and, when non-null, the monitor bookkeeping and the
  // engine register state. Pass monitor/engine only at quiescent points (see
  // Engine::SaveState).
  static Snapshot Capture(const opec_hw::Machine& machine,
                          const opec_monitor::Monitor* monitor = nullptr,
                          const opec_rt::Engine* engine = nullptr);

  // Restores captured sections into the given objects. A section captured but
  // passed as null here is skipped; a null-captured section with a non-null
  // target is a hard error (the target would keep stale state silently).
  // Memory comes back through Bus::LoadState's page copy, picked by
  // image_id(); the result is the same either way.
  void Restore(opec_hw::Machine& machine, opec_monitor::Monitor* monitor = nullptr,
               opec_rt::Engine* engine = nullptr) const;

  // Names this snapshot's memory image within the process (0: none). Copies
  // share it; a capture or a deserialization gets a new one.
  uint64_t image_id() const { return image_id_; }

  // Container wire format: magic, version, section count, then per section
  // name + length-prefixed payload.
  std::vector<uint8_t> Serialize() const;
  static Snapshot Deserialize(const uint8_t* data, size_t size);
  static Snapshot Deserialize(const std::vector<uint8_t>& bytes) {
    return Deserialize(bytes.data(), bytes.size());
  }

  // FNV-1a 64 of Serialize() — the snapshot's identity. Two snapshots with
  // equal digests restore to indistinguishable states.
  uint64_t Digest() const;

  // Writes the container wire format, verbatim, for forensics (campaign
  // --snapshot-dir); Deserialize of the file's bytes loads it back. Atomic-ish:
  // writes `path`.tmp then renames, so concurrent readers never see a torn
  // snapshot. Failures are OPEC_CHECK errors.
  void WriteFile(const std::string& path) const;

 private:
  struct Section {
    std::string name;
    std::vector<uint8_t> payload;
  };

  const Section* Find(const std::string& name) const;

  std::vector<Section> sections_;
  uint64_t image_id_ = 0;
};

}  // namespace opec_snapshot

#endif  // SRC_SNAPSHOT_SNAPSHOT_H_
