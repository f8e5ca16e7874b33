// Registry of every evaluated workload (the paper's Section 6 line-up).

#ifndef SRC_APPS_ALL_APPS_H_
#define SRC_APPS_ALL_APPS_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/apps/app.h"

namespace opec_apps {

struct AppFactory {
  std::string name;
  std::function<std::unique_ptr<Application>()> make;
  // The five applications ACES also evaluated (used by Figures 10/11 and
  // Table 2's comparison).
  bool in_aces_comparison = false;
};

// All seven workloads, in the paper's order: PinLock, Animation, FatFs-uSD,
// LCD-uSD, TCP-Echo, Camera, CoreMark.
std::vector<AppFactory> AllApps();

// Traffic-mode variants of the net apps (TCP-Echo-Load over the PIO device,
// TCP-Echo-DMA over the descriptor-ring device). Kept out of AllApps() so
// figure/table output over the paper line-up stays stable; the specs come
// from opec_traffic::DefaultLoadSpec() at make() time.
std::vector<AppFactory> TrafficApps();

// Canonical app key: lower-case, '-' folded to '_'. "TCP-Echo-Load",
// "tcp_echo_load" and "tcp-echo-load" all name the same app; the CLIs accept
// any of them, and campaign's snapshot and trace file names use this form.
std::string AppKey(const std::string& name);

// Looks up `name` (exact or by AppKey) across AllApps() ∪ TrafficApps().
// Returns nullopt if unknown.
std::optional<AppFactory> FindAppFactory(const std::string& name);

}  // namespace opec_apps

#endif  // SRC_APPS_ALL_APPS_H_
