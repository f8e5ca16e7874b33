#include "src/snapshot/snapshot.h"

#include <atomic>
#include <cstdio>

#include "src/hw/machine.h"
#include "src/monitor/monitor.h"
#include "src/rt/engine.h"
#include "src/support/check.h"

namespace opec_snapshot {

using opec_hw::StateReader;
using opec_hw::StateWriter;

namespace {

uint64_t NextImageId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Snapshot Snapshot::Capture(const opec_hw::Machine& machine,
                           const opec_monitor::Monitor* monitor,
                           const opec_rt::Engine* engine) {
  Snapshot s;
  s.image_id_ = NextImageId();
  {
    StateWriter w;
    machine.SaveState(w);
    s.sections_.push_back({kMachineSection, w.Take()});
  }
  if (monitor != nullptr) {
    StateWriter w;
    monitor->SaveState(w);
    s.sections_.push_back({kMonitorSection, w.Take()});
  }
  if (engine != nullptr) {
    StateWriter w;
    engine->SaveState(w);
    s.sections_.push_back({kEngineSection, w.Take()});
  }
  return s;
}

void Snapshot::Restore(opec_hw::Machine& machine, opec_monitor::Monitor* monitor,
                       opec_rt::Engine* engine) const {
  const Section* m = Find(kMachineSection);
  OPEC_CHECK_MSG(m != nullptr, "snapshot has no machine section");
  {
    StateReader r(m->payload);
    machine.LoadState(r, image_id_);
    OPEC_CHECK_MSG(r.AtEnd(), "machine section has trailing bytes");
  }
  if (monitor != nullptr) {
    const Section* sec = Find(kMonitorSection);
    OPEC_CHECK_MSG(sec != nullptr,
                   "restore target has a monitor but the snapshot captured none");
    StateReader r(sec->payload);
    monitor->LoadState(r);
    OPEC_CHECK_MSG(r.AtEnd(), "monitor section has trailing bytes");
  }
  if (engine != nullptr) {
    const Section* sec = Find(kEngineSection);
    OPEC_CHECK_MSG(sec != nullptr,
                   "restore target has an engine but the snapshot captured none");
    StateReader r(sec->payload);
    engine->LoadState(r);
    OPEC_CHECK_MSG(r.AtEnd(), "engine section has trailing bytes");
  }
}

const Snapshot::Section* Snapshot::Find(const std::string& name) const {
  for (const Section& s : sections_) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

std::vector<uint8_t> Snapshot::Serialize() const {
  StateWriter w;
  w.U32(kMagic);
  w.U32(kVersion);
  w.U64(sections_.size());
  for (const Section& s : sections_) {
    w.Str(s.name);
    w.Blob(s.payload);
  }
  return w.Take();
}

Snapshot Snapshot::Deserialize(const uint8_t* data, size_t size) {
  StateReader r(data, size);
  OPEC_CHECK_MSG(r.U32() == kMagic, "not a snapshot (bad magic)");
  uint32_t version = r.U32();
  OPEC_CHECK_MSG(version == kVersion,
                 "unsupported snapshot version " + std::to_string(version) + " (expected " +
                     std::to_string(kVersion) + ")");
  Snapshot s;
  s.image_id_ = NextImageId();
  uint64_t n = r.U64();
  for (uint64_t i = 0; i < n; ++i) {
    Section sec;
    sec.name = r.Str();
    sec.payload = r.Blob();
    s.sections_.push_back(std::move(sec));
  }
  OPEC_CHECK_MSG(r.AtEnd(), "snapshot has trailing bytes");
  return s;
}

uint64_t Snapshot::Digest() const {
  std::vector<uint8_t> bytes = Serialize();
  return opec_hw::Fnv1a64(bytes.data(), bytes.size());
}

void Snapshot::WriteFile(const std::string& path) const {
  std::vector<uint8_t> bytes = Serialize();
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  OPEC_CHECK_MSG(f != nullptr, "cannot open snapshot file for writing: " + tmp);
  size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  int close_err = std::fclose(f);
  OPEC_CHECK_MSG(written == bytes.size() && close_err == 0,
                 "short write to snapshot file: " + tmp);
  OPEC_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                 "cannot rename snapshot file into place: " + path);
}

}  // namespace opec_snapshot
