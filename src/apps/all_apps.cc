#include "src/apps/all_apps.h"

#include <cctype>

#include "src/apps/animation.h"
#include "src/apps/camera.h"
#include "src/apps/coremark.h"
#include "src/apps/fatfs_usd.h"
#include "src/apps/lcd_usd.h"
#include "src/apps/pinlock.h"
#include "src/apps/tcp_echo.h"

namespace opec_apps {

std::vector<AppFactory> AllApps() {
  return {
      {"PinLock", [] { return std::unique_ptr<Application>(new PinLockApp()); }, true},
      {"Animation", [] { return std::unique_ptr<Application>(new AnimationApp()); }, true},
      {"FatFs-uSD", [] { return std::unique_ptr<Application>(new FatFsUsdApp()); }, true},
      {"LCD-uSD", [] { return std::unique_ptr<Application>(new LcdUsdApp()); }, true},
      {"TCP-Echo", [] { return std::unique_ptr<Application>(new TcpEchoApp()); }, true},
      {"Camera", [] { return std::unique_ptr<Application>(new CameraApp()); }, false},
      {"CoreMark", [] { return std::unique_ptr<Application>(new CoreMarkApp()); }, false},
  };
}

std::vector<AppFactory> TrafficApps() {
  return {
      {"TCP-Echo-Load",
       [] {
         return std::unique_ptr<Application>(new TcpEchoApp(
             opec_traffic::DefaultLoadSpec(), TcpEchoApp::EthVariant::kPio));
       },
       false},
      {"TCP-Echo-DMA",
       [] {
         return std::unique_ptr<Application>(new TcpEchoApp(
             opec_traffic::DefaultLoadSpec(), TcpEchoApp::EthVariant::kDma));
       },
       false},
  };
}

std::string AppKey(const std::string& name) {
  std::string out;
  for (char c : name) {
    out.push_back(c == '-' ? '_' : static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

std::optional<AppFactory> FindAppFactory(const std::string& name) {
  // One registry per process (campaign jobs look their app up one by one),
  // never destroyed so late lookups from pool threads stay valid.
  static const std::vector<AppFactory>* kApps = [] {
    auto* apps = new std::vector<AppFactory>(AllApps());
    for (AppFactory& factory : TrafficApps()) {
      apps->push_back(std::move(factory));
    }
    return apps;
  }();
  const std::string key = AppKey(name);
  for (const AppFactory& app : *kApps) {
    if (app.name == name || AppKey(app.name) == key) {
      return app;
    }
  }
  return std::nullopt;
}

}  // namespace opec_apps
