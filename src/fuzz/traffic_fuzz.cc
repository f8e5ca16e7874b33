#include "src/fuzz/traffic_fuzz.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/apps/runner.h"
#include "src/apps/tcp_echo.h"
#include "src/hw/address_map.h"
#include "src/hw/devices/ethernet.h"
#include "src/hw/devices/ethernet_dma.h"
#include "src/hw/machine.h"
#include "src/hw/state_io.h"
#include "src/support/check.h"
#include "src/support/hash.h"
#include "src/support/text.h"

namespace opec_fuzz {
namespace {

using opec_support::Fnv1a64;
using opec_support::SplitMix64;

// Folds `v`'s eight bytes, least significant first, into digest `h`.
uint64_t Fold(uint64_t h, uint64_t v) {
  uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  return Fnv1a64(bytes, sizeof(bytes), h);
}

// What one configuration's run looks like; every field enters the digest.
struct RunObservation {
  bool ok = false;
  uint32_t return_value = 0;
  uint64_t cycles = 0;
  uint64_t statements = 0;
  uint64_t rv_violations = 0;
  std::string check;  // scenario-check failure, empty when clean
};

RunObservation RunConfig(const opec_apps::TcpEchoApp& app, opec_apps::BuildMode mode,
                         opec_apps::EngineKind engine) {
  RunObservation obs;
  opec_support::ScopedCheckThrow capture;
  try {
    opec_apps::AppRun run(app, mode, engine);
    run.EnableRv();
    opec_rt::RunResult result = run.Execute();
    obs.ok = result.ok;
    obs.return_value = result.return_value;
    obs.cycles = result.cycles;
    obs.statements = result.statements;
    obs.rv_violations = run.rv()->total_violations();
    obs.check = result.ok ? run.Check() : "run failed: " + result.violation;
  } catch (const opec_support::CheckError& e) {
    obs.check = std::string("host check fired: ") + e.what();
  }
  return obs;
}

std::string SerializeDevice(const opec_hw::MmioDevice& device) {
  opec_hw::StateWriter w;
  device.SaveState(w);
  return std::string(w.data().begin(), w.data().end());
}

std::vector<uint8_t> RandomFrame(SplitMix64& rng) {
  std::vector<uint8_t> frame(rng.Below(81));
  for (uint8_t& b : frame) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return frame;
}

}  // namespace

uint64_t MicroFuzzEthernetDevices(uint64_t seed, std::vector<std::string>* divergences) {
  SplitMix64 rng(seed ^ 0xE7BE57F0D15C0DE5ull);
  opec_hw::Machine machine(opec_hw::Board::kStm32479iEval);
  auto eth = std::make_unique<opec_hw::Ethernet>("ETH", 0x40028000);
  auto dma = std::make_unique<opec_hw::EthernetDma>("ETH2", 0x40029000, &machine);
  const uint32_t ring_base = opec_hw::kSramBase + 0x1000;
  const uint32_t buf_base = opec_hw::kSramBase + 0x2000;
  uint64_t h = 0xCBF29CE484222325ull;
  const int ops = 96;
  for (int op = 0; op < ops; ++op) {
    uint64_t cycles = 0;
    uint32_t value = 0;
    bool ok = true;
    switch (rng.Below(12)) {
      case 0:
        eth->QueueRxFrame(RandomFrame(rng), rng.Below(2'000'000));
        break;
      case 1:
        ok = eth->Read(rng.Below(2) == 0 ? 0x00 : 0x04, &value, &cycles);
        break;
      case 2: {
        bool was_empty = eth->rx_pending() == 0;
        ok = eth->Read(0x08, &value, &cycles);
        if (was_empty && (!ok || value != 0 || cycles != 0)) {
          divergences->push_back(opec_support::StrPrintf(
              "RXDATA on empty queue: ok=%d value=%u cycles=%llu (want ok, 0, 0)", ok,
              value, static_cast<unsigned long long>(cycles)));
        }
        break;
      }
      case 3: {
        uint32_t len = static_cast<uint32_t>(rng.Below(4096));
        ok = eth->Write(0x0C, len, &cycles);
        if ((len > opec_hw::Ethernet::kMaxFrameBytes) == ok) {
          divergences->push_back(opec_support::StrPrintf(
              "TXLEN=%u: ok=%d (oversize must fault, in-range must not)", len, ok));
        }
        break;
      }
      case 4:
        ok = eth->Write(0x10, static_cast<uint32_t>(rng.Next()), &cycles);
        break;
      case 5:
        ok = eth->Write(0x14, 1 + static_cast<uint32_t>(rng.Below(2)), &cycles);
        break;
      case 6: {
        // Configure the DMA ring; occasionally point it somewhere bogus.
        bool bogus = rng.Below(8) == 0;
        uint32_t base = bogus ? 0x70000000u : ring_base;
        uint32_t count = 1 + static_cast<uint32_t>(rng.Below(8));
        ok = dma->Write(0x04, base, &cycles) && dma->Write(0x08, count, &cycles);
        if (!bogus) {
          for (uint32_t i = 0; i < count; ++i) {
            machine.bus().DebugWrite(ring_base + i * 8, 4, buf_base + i * 256);
            machine.bus().DebugWrite(ring_base + i * 8 + 4, 4, 0x80000000u);
          }
        }
        break;
      }
      case 7:
        ok = dma->Write(0x0C, static_cast<uint32_t>(rng.Below(20)), &cycles);
        break;
      case 8:
        dma->QueueRxFrame(RandomFrame(rng), rng.Below(2'000'000));
        break;
      case 9:
        machine.AddCycles(rng.Below(4'000'000));
        ok = dma->Write(0x18, 1, &cycles);
        break;
      case 10: {
        // Seed a tx frame in SRAM, then DMA it out; sometimes from a bogus
        // address, which must surface as a device fault, not an abort.
        bool bogus = rng.Below(8) == 0;
        uint32_t len = static_cast<uint32_t>(rng.Below(200));
        for (uint32_t i = 0; i < len; ++i) {
          machine.bus().DebugWrite(buf_base + 0x4000 + i, 1,
                                   static_cast<uint32_t>(rng.Next() & 0xFF));
        }
        ok = dma->Write(0x10, bogus ? 0x70000000u : buf_base + 0x4000, &cycles) &&
             dma->Write(0x14, len, &cycles);
        if (ok) {
          ok = dma->Write(0x18, 2, &cycles);
          if (bogus && len > 0 && ok) {
            divergences->push_back("DMA tx from an unmapped address did not fault");
          }
        }
        break;
      }
      default:
        ok = dma->Read(rng.Below(2) == 0 ? 0x00 : 0x1C, &value, &cycles);
        break;
    }
    h = Fold(h, static_cast<uint64_t>(op));
    h = Fold(h, ok ? 1 : 0);
    h = Fold(h, value);
    h = Fold(h, cycles);

    if (op == ops / 2) {
      // Mid-stream snapshot round trip: state must survive serialization with
      // queued frames, partial tx buffers and half-configured rings in flight.
      std::string eth_state = SerializeDevice(*eth);
      std::string dma_state = SerializeDevice(*dma);
      auto eth2 = std::make_unique<opec_hw::Ethernet>("ETH", 0x40028000);
      auto dma2 = std::make_unique<opec_hw::EthernetDma>("ETH2", 0x40029000, &machine);
      opec_hw::StateReader er(reinterpret_cast<const uint8_t*>(eth_state.data()),
                              eth_state.size());
      opec_hw::StateReader dr(reinterpret_cast<const uint8_t*>(dma_state.data()),
                              dma_state.size());
      eth2->LoadState(er);
      dma2->LoadState(dr);
      if (SerializeDevice(*eth2) != eth_state) {
        divergences->push_back("PIO ethernet state changed across a save/load round trip");
      }
      if (SerializeDevice(*dma2) != dma_state) {
        divergences->push_back("DMA ethernet state changed across a save/load round trip");
      }
      if (eth2->tx_digest() != eth->tx_digest() || dma2->tx_digest() != dma->tx_digest()) {
        divergences->push_back("tx digest not preserved across a save/load round trip");
      }
      // Continue the op stream on the restored devices.
      eth = std::move(eth2);
      dma = std::move(dma2);
    }
  }
  h = Fold(h, eth->tx_digest());
  h = Fold(h, dma->tx_digest());
  h = Fold(h, eth->tx_committed());
  h = Fold(h, dma->tx_committed());
  h = Fold(h, dma->delivered());
  return h;
}

TrafficCaseResult RunTrafficCase(uint64_t seed) {
  TrafficCaseResult result;
  result.seed = seed;
  SplitMix64 rng(seed ^ 0x7452414646494Bull);
  result.spec.rate_rps = 1 + static_cast<uint32_t>(rng.Below(1'000'000));
  result.spec.conns = 1 + static_cast<uint32_t>(rng.Below(8));
  result.spec.requests = 6 + static_cast<uint32_t>(rng.Below(27));
  result.spec.seed = rng.Next();
  result.spec.malformed_permille = static_cast<uint32_t>(rng.Below(401));
  result.spec.split_permille = static_cast<uint32_t>(rng.Below(401));
  result.spec.reconnect_permille = static_cast<uint32_t>(rng.Below(101));
  const bool use_dma = rng.Below(2) == 0;
  opec_apps::TcpEchoApp app(result.spec,
                            use_dma ? opec_apps::TcpEchoApp::EthVariant::kDma
                                    : opec_apps::TcpEchoApp::EthVariant::kPio);

  // modes × engines: [vanilla/interp, vanilla/bytecode, opec/interp,
  // opec/bytecode].
  RunObservation obs[4];
  uint64_t h = 0xCBF29CE484222325ull;
  int idx = 0;
  for (opec_apps::BuildMode mode :
       {opec_apps::BuildMode::kVanilla, opec_apps::BuildMode::kOpec}) {
    for (opec_apps::EngineKind engine :
         {opec_apps::EngineKind::kInterp, opec_apps::EngineKind::kBytecode}) {
      RunObservation& o = obs[idx++];
      o = RunConfig(app, mode, engine);
      const char* label = mode == opec_apps::BuildMode::kOpec ? "opec" : "vanilla";
      if (!o.check.empty()) {
        result.divergences.push_back(opec_support::StrPrintf(
            "[%s/%s] %s", label, opec_apps::EngineKindName(engine), o.check.c_str()));
      }
      if (o.rv_violations != 0) {
        result.divergences.push_back(opec_support::StrPrintf(
            "[%s/%s] %llu rv violation(s) on a clean traffic run", label,
            opec_apps::EngineKindName(engine),
            static_cast<unsigned long long>(o.rv_violations)));
      }
      h = Fold(h, o.ok ? 1 : 0);
      h = Fold(h, o.return_value);
      h = Fold(h, o.cycles);
      h = Fold(h, o.statements);
      h = Fold(h, o.rv_violations);
      h = Fnv1a64(o.check.data(), o.check.size(), h);
    }
  }
  // Cross-tier: modeled outputs must be bit-identical per build mode.
  for (int mode = 0; mode < 2; ++mode) {
    const RunObservation& a = obs[mode * 2];
    const RunObservation& b = obs[mode * 2 + 1];
    if (a.cycles != b.cycles || a.statements != b.statements) {
      result.divergences.push_back(opec_support::StrPrintf(
          "[%s] interp/bytecode modeled drift: cycles %llu vs %llu, statements %llu vs "
          "%llu",
          mode == 1 ? "opec" : "vanilla", static_cast<unsigned long long>(a.cycles),
          static_cast<unsigned long long>(b.cycles),
          static_cast<unsigned long long>(a.statements),
          static_cast<unsigned long long>(b.statements)));
    }
  }
  // Cross-mode: the isolation monitor must not change the server's behaviour.
  if (obs[0].return_value != obs[2].return_value) {
    result.divergences.push_back(opec_support::StrPrintf(
        "vanilla echoed %u requests, opec %u", obs[0].return_value, obs[2].return_value));
  }

  h = Fold(h, MicroFuzzEthernetDevices(seed, &result.divergences));
  result.digest = opec_support::StrPrintf(
      "traffic seed=%llu dev=%s %s digest=%016llx%s",
      static_cast<unsigned long long>(seed), use_dma ? "dma" : "pio",
      opec_traffic::TrafficSpecToString(result.spec).c_str(),
      static_cast<unsigned long long>(h), result.divergences.empty() ? "" : " DIVERGED");
  return result;
}

}  // namespace opec_fuzz
