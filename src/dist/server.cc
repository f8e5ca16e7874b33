#include "src/dist/server.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/support/check.h"
#include "src/support/fs.h"

namespace opec_dist {

namespace {

// A peer whose outbox grows past this is not reading; it is killed rather
// than buffered without bound.
constexpr uint64_t kOutboxMaxBytes = 128ull << 20;

int DeadlineMs(std::chrono::steady_clock::time_point now,
               std::chrono::steady_clock::time_point deadline) {
  auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count();
  if (ms < 0) {
    return 0;
  }
  if (ms > 60000) {
    return 60000;
  }
  return static_cast<int>(ms);
}

// Equality without an early exit on content, so a byte-by-byte probe of the
// shared token learns nothing from response timing.
bool TokenEq(const std::string& a, const std::string& b) {
  unsigned char diff = a.size() == b.size() ? 0 : 1;
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    diff = static_cast<unsigned char>(diff | (a[i] ^ b[i]));
  }
  return diff == 0;
}

}  // namespace

CampaignServer::CampaignServer(const opec_campaign::CampaignSpec& spec,
                               const Options& options)
    : options_(options), sweep_(SweepKind::kCampaign) {
  resolved_.reserve(spec.jobs.size());
  for (size_t i = 0; i < spec.jobs.size(); ++i) {
    resolved_.push_back(opec_campaign::ResolveJobSpec(spec.jobs[i], i, spec.seed,
                                                      spec.timeout_ms,
                                                      options.default_timeout_ms,
                                                      options.trace_dir));
  }
  BuildQueue(spec.jobs.size());
  job_results_.resize(total_);
}

CampaignServer::CampaignServer(uint64_t fuzz_base_seed, uint64_t fuzz_count,
                               const Options& options)
    : options_(options),
      sweep_(SweepKind::kFuzz),
      fuzz_base_seed_(fuzz_base_seed) {
  BuildQueue(static_cast<size_t>(fuzz_count));
  case_results_.resize(total_);
}

CampaignServer::~CampaignServer() = default;

void CampaignServer::BuildQueue(size_t total) {
  total_ = total;
  unit_size_ = std::max<size_t>(1, options_.unit_size);
  have_.assign(total_, 0);
  for (uint64_t unit = 0; UnitFirst(unit) < total_; ++unit) {
    pending_.push_back(unit);
  }
}

void CampaignServer::AddWorker(std::unique_ptr<Transport> transport) {
  WorkerState w;
  w.transport = std::move(transport);
  workers_.push_back(std::move(w));
}

size_t CampaignServer::AliveWorkers() const {
  size_t n = 0;
  for (const WorkerState& w : workers_) {
    if (!w.dead) {
      ++n;
    }
  }
  return n;
}

bool CampaignServer::UnitRecorded(uint64_t unit) const {
  for (size_t i = UnitFirst(unit); i < UnitEnd(unit); ++i) {
    if (!have_[i]) {
      return false;
    }
  }
  return true;
}

void CampaignServer::EnqueueFrame(size_t wi, const Frame& frame) {
  WorkerState& w = workers_[wi];
  if (w.dead) {
    return;
  }
  std::vector<uint8_t> bytes = EncodeFrame(frame);
  w.outbox_bytes += bytes.size();
  w.outbox.push_back(std::move(bytes));
  if (w.outbox_bytes > kOutboxMaxBytes) {
    KillWorker(wi, "outbox overflow (peer not draining)");
    return;
  }
  DrainOutbox(wi);
}

void CampaignServer::DrainOutbox(size_t wi) {
  WorkerState& w = workers_[wi];
  if (w.dead) {
    return;
  }
  while (!w.outbox.empty()) {
    const std::vector<uint8_t>& buf = w.outbox.front();
    int n = w.transport->SendSome(buf.data() + w.outbox_off, buf.size() - w.outbox_off);
    if (n < 0) {
      KillWorker(wi, w.transport->error().c_str());
      return;
    }
    if (n == 0) {
      return;  // peer's socket buffer is full; POLLOUT will resume the drain
    }
    w.outbox_off += static_cast<size_t>(n);
    w.outbox_bytes -= static_cast<uint64_t>(n);
    if (w.outbox_off == w.outbox.front().size()) {
      w.outbox.pop_front();
      w.outbox_off = 0;
    }
  }
}

void CampaignServer::Hangup(size_t wi) {
  WorkerState& w = workers_[wi];
  w.dead = true;
  w.transport->Close();
  w.outbox.clear();
  w.outbox_off = 0;
  w.outbox_bytes = 0;
}

void CampaignServer::KillWorker(size_t wi, const char* why) {
  WorkerState& w = workers_[wi];
  if (w.dead) {
    return;
  }
  Hangup(wi);
  if (!w.shutdown_sent) {
    ++stats_.workers_died;
    std::fprintf(stderr, "dist: worker %zu (%s) lost: %s\n", wi,
                 w.name.empty() ? "?" : w.name.c_str(), why);
  }
  // Recovery work goes to the *front* of the queue so the sweep's tail is not
  // stuck behind untouched units.
  std::vector<uint64_t> held;
  for (const auto& [unit, lease] : leases_) {
    if (lease.worker == wi) {
      held.push_back(unit);
    }
  }
  RequeueUnits(held, /*expired=*/false);
}

void CampaignServer::RequeueUnits(const std::vector<uint64_t>& units, bool expired) {
  for (auto it = units.rbegin(); it != units.rend(); ++it) {
    leases_.erase(*it);
    if (UnitRecorded(*it)) {
      // A late/duplicate delivery already recorded every row: the unit is
      // done, not lost — drop it silently so the stats never double-count it.
      continue;
    }
    pending_.push_front(*it);
    ++(expired ? stats_.leases_expired : stats_.units_reissued);
  }
}

void CampaignServer::ExpireLeases(Clock::time_point now) {
  if (options_.lease_ms == 0) {
    return;
  }
  std::vector<uint64_t> expired;
  for (const auto& [unit, lease] : leases_) {
    if (lease.deadline <= now) {
      expired.push_back(unit);
    }
  }
  RequeueUnits(expired, /*expired=*/true);
}

void CampaignServer::RecordResult(size_t wi, const ResultMsg& msg) {
  auto lease = leases_.find(msg.unit_id);
  bool own_lease = lease != leases_.end() && lease->second.worker == wi;
  if (!own_lease) {
    // The lease expired (and the unit was requeued or reissued): the rows
    // still count via first-write-wins below, but the delivery is late.
    ++stats_.late_results;
  }

  for (size_t k = 0; k < msg.indexes.size(); ++k) {
    size_t index = static_cast<size_t>(msg.indexes[k]);
    if (index >= total_ || have_[index]) {
      continue;  // malformed row, or a duplicate delivery; first write wins
    }
    if (sweep_ == SweepKind::kCampaign) {
      job_results_[index] = msg.jobs[k];
      job_results_[index].index = index;
    } else {
      case_results_[index] = msg.cases[k];
    }
    have_[index] = 1;
    ++done_count_;
    if (on_progress_) {
      on_progress_(done_count_, total_);
    }
  }

  // The holder's delivery ends its lease; rows it left out go back to the
  // queue. A late delivery that completed a unit someone else now holds
  // cancels that lease silently — nothing was lost.
  if (own_lease || (lease != leases_.end() && UnitRecorded(msg.unit_id))) {
    RequeueUnits({msg.unit_id}, /*expired=*/false);
  }
}

void CampaignServer::SendAssign(size_t wi, uint64_t unit) {
  AssignMsg assign;
  assign.unit_id = unit;
  for (size_t i = UnitFirst(unit); i < UnitEnd(unit); ++i) {
    if (have_[i]) {
      continue;
    }
    assign.indexes.push_back(i);
    if (sweep_ == SweepKind::kCampaign) {
      assign.jobs.push_back(resolved_[i]);
    } else {
      assign.fuzz_seeds.push_back(fuzz_base_seed_ + i);
    }
  }
  EnqueueFrame(wi, MakeFrame(FrameType::kAssign, [&](opec_hw::StateWriter& sw) {
                 WriteAssign(sw, sweep_, assign);
               }));
}

bool CampaignServer::HandleHello(size_t wi, const HelloMsg& hello) {
  WorkerState& w = workers_[wi];
  auto reject = [&](const char* why) {
    // Refuse before a single byte flows back: no welcome, no error frame —
    // just the hangup. (A frame would leak that a campaign server is
    // listening, and which protocol version it speaks.)
    ++stats_.peers_rejected;
    std::fprintf(stderr, "dist: peer '%s' rejected: %s\n",
                 hello.worker_name.empty() ? "?" : hello.worker_name.c_str(), why);
    Hangup(wi);
    return false;
  };
  if (w.hello_done) {
    KillWorker(wi, "duplicate hello");
    return false;
  }
  if (hello.version != kProtocolVersion) {
    return reject("protocol version mismatch");
  }
  if (!options_.auth_token.empty() && !TokenEq(hello.token, options_.auth_token)) {
    return reject("bad auth token");
  }
  w.name = hello.worker_name;
  w.hello_done = true;
  ++stats_.workers;
  WelcomeMsg welcome;
  welcome.sweep = sweep_;
  welcome.cold_boot = options_.cold_boot;
  welcome.snapshot_dir = options_.snapshot_dir;
  EnqueueFrame(wi, MakeFrame(FrameType::kWelcome,
                             [&](opec_hw::StateWriter& sw) { WriteWelcome(sw, welcome); }));
  return !workers_[wi].dead;
}

bool CampaignServer::HandleFrame(size_t wi, const Frame& frame) {
  WorkerState& w = workers_[wi];
  opec_hw::StateReader r(frame.payload);
  switch (frame.type) {
    case FrameType::kHello: {
      return HandleHello(wi, ReadHello(r));
    }
    case FrameType::kRequestWork: {
      if (!w.hello_done) {
        KillWorker(wi, "work request before hello");
        return false;
      }
      // Skip units that late/duplicate deliveries recorded while they were
      // queued — re-issuing them would burn a worker on jobs that cannot
      // advance done_count_ (with a tiny --lease-ms that livelocks the sweep).
      while (!pending_.empty() && UnitRecorded(pending_.front())) {
        pending_.pop_front();
      }
      if (!pending_.empty()) {
        uint64_t unit = pending_.front();
        pending_.pop_front();
        leases_[unit] = Lease{wi, Clock::now() + std::chrono::milliseconds(options_.lease_ms)};
        ++stats_.units_issued;
        SendAssign(wi, unit);
      } else if (Done()) {
        w.shutdown_sent = true;
        EnqueueFrame(wi, MakeFrame(FrameType::kShutdown));
      } else {
        EnqueueFrame(wi, MakeFrame(FrameType::kNoWork));
      }
      return !workers_[wi].dead;
    }
    case FrameType::kResult: {
      if (!w.hello_done) {
        KillWorker(wi, "result before hello");
        return false;
      }
      RecordResult(wi, ReadResult(r, sweep_));
      return true;
    }
    case FrameType::kWelcome:
    case FrameType::kAssign:
    case FrameType::kNoWork:
    case FrameType::kShutdown:
      break;
  }
  KillWorker(wi, "unexpected frame from worker");
  return false;
}

std::string CampaignServer::Serve() {
  // On an early bail-out, hang up on every connected worker: self-hosted
  // children block in Recv waiting for kWelcome, and the parent waitpid()s
  // them — without the EOF they would deadlock against each other.
  auto fail = [&](std::string err) {
    for (size_t i = 0; i < workers_.size(); ++i) {
      Hangup(i);
    }
    return err;
  };
  for (const std::string& dir : {options_.snapshot_dir, options_.trace_dir}) {
    if (!dir.empty()) {
      std::string err = opec_support::EnsureDirs(dir);
      if (!err.empty()) {
        return fail("campaign output directory unusable: " + err);
      }
    }
  }
  stats_.active = true;

  // Pumps every complete frame out of one connection's receive buffer.
  // Returns false when the connection died (EOF, I/O error, protocol kill).
  auto pump = [&](size_t wi) {
    for (;;) {
      if (workers_[wi].dead) {
        return false;
      }
      Frame frame;
      bool got = false;
      Transport::Status st = workers_[wi].transport->RecvAsync(&frame, &got);
      if (st == Transport::Status::kEof) {
        KillWorker(wi, "disconnected");
        return false;
      }
      if (st == Transport::Status::kError) {
        KillWorker(wi, workers_[wi].transport->error().c_str());
        return false;
      }
      if (!got) {
        return true;
      }
      try {
        opec_support::ScopedCheckThrow capture;
        if (!HandleFrame(wi, frame)) {
          return false;
        }
      } catch (const std::exception& e) {
        KillWorker(wi, e.what());
        return false;
      }
    }
  };

  while (!Done()) {
    if (AliveWorkers() == 0 && listen_fd_ < 0) {
      return "all workers disconnected with " + std::to_string(total_ - done_count_) +
             " jobs incomplete";
    }
    Clock::time_point now = Clock::now();
    ExpireLeases(now);

    std::vector<pollfd> fds;
    std::vector<size_t> fd_worker;
    if (listen_fd_ >= 0) {
      fds.push_back({listen_fd_, POLLIN, 0});
      fd_worker.push_back(static_cast<size_t>(-1));
    }
    for (size_t i = 0; i < workers_.size(); ++i) {
      if (!workers_[i].dead) {
        short events = POLLIN;
        if (!workers_[i].outbox.empty()) {
          events = static_cast<short>(events | POLLOUT);
        }
        fds.push_back({workers_[i].transport->fd(), events, 0});
        fd_worker.push_back(i);
      }
    }

    int timeout_ms = 100;
    if (options_.lease_ms != 0 && !leases_.empty()) {
      Clock::time_point first = leases_.begin()->second.deadline;
      for (const auto& [id, lease] : leases_) {
        first = std::min(first, lease.deadline);
      }
      timeout_ms = std::min(timeout_ms, DeadlineMs(now, first) + 1);
    }
    int rc = ::poll(fds.data(), fds.size(), timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) {
        continue;
      }
      return fail(std::string("poll: ") + std::strerror(errno));
    }
    for (size_t k = 0; k < fds.size(); ++k) {
      if (fds[k].revents == 0) {
        continue;
      }
      if (fd_worker[k] == static_cast<size_t>(-1)) {
        std::string err;
        uint32_t peer_ip = 0;
        int cfd = TcpAccept(listen_fd_, &err, &peer_ip);
        if (cfd >= 0) {
          if (!CidrMatch(options_.allow, peer_ip)) {
            // Refused before a single frame is read or written.
            ++stats_.peers_rejected;
            std::fprintf(stderr, "dist: peer %u.%u.%u.%u rejected: not allow-listed\n",
                         (peer_ip >> 24) & 0xff, (peer_ip >> 16) & 0xff,
                         (peer_ip >> 8) & 0xff, peer_ip & 0xff);
            ::close(cfd);
          } else {
            AddWorker(std::make_unique<Transport>(cfd));
          }
        }
        continue;
      }
      size_t wi = fd_worker[k];
      if (workers_[wi].dead) {
        continue;
      }
      if ((fds[k].revents & POLLOUT) != 0) {
        DrainOutbox(wi);
      }
      if (workers_[wi].dead) {
        continue;
      }
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        pump(wi);
      }
    }
  }

  // Sweep complete: tell everyone to go home and drain stragglers (workers
  // mid-duplicate-unit still deliver a kResult + kRequestWork pair). The
  // outboxes must keep draining here too — the shutdown frames ride them.
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (!workers_[i].dead && workers_[i].hello_done) {
      workers_[i].shutdown_sent = true;
      EnqueueFrame(i, MakeFrame(FrameType::kShutdown));
    } else if (!workers_[i].dead) {
      Hangup(i);  // connected but never said hello; nothing to drain
    }
  }
  Clock::time_point drain_deadline =
      Clock::now() + std::chrono::milliseconds(options_.drain_ms);
  while (AliveWorkers() > 0 && Clock::now() < drain_deadline) {
    std::vector<pollfd> fds;
    std::vector<size_t> fd_worker;
    for (size_t i = 0; i < workers_.size(); ++i) {
      if (!workers_[i].dead) {
        short events = POLLIN;
        if (!workers_[i].outbox.empty()) {
          events = static_cast<short>(events | POLLOUT);
        }
        fds.push_back({workers_[i].transport->fd(), events, 0});
        fd_worker.push_back(i);
      }
    }
    int rc = ::poll(fds.data(), fds.size(), 100);
    if (rc < 0 && errno != EINTR) {
      break;
    }
    for (size_t k = 0; k < fds.size(); ++k) {
      if (fds[k].revents == 0) {
        continue;
      }
      size_t wi = fd_worker[k];
      if (workers_[wi].dead) {
        continue;
      }
      if ((fds[k].revents & POLLOUT) != 0) {
        DrainOutbox(wi);
      }
      if (workers_[wi].dead || (fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      for (;;) {
        Frame frame;
        bool got = false;
        Transport::Status st = workers_[wi].transport->RecvAsync(&frame, &got);
        if (st != Transport::Status::kOk) {
          Hangup(wi);  // orderly exit after shutdown
          break;
        }
        if (!got) {
          break;
        }
        try {
          opec_support::ScopedCheckThrow capture;
          if (frame.type == FrameType::kResult) {
            opec_hw::StateReader r(frame.payload);
            RecordResult(wi, ReadResult(r, sweep_));
          } else if (frame.type == FrameType::kRequestWork) {
            workers_[wi].shutdown_sent = true;
            EnqueueFrame(wi, MakeFrame(FrameType::kShutdown));
          }
          // Anything else during drain is ignorable.
        } catch (const std::exception&) {
          Hangup(wi);
          break;
        }
        if (workers_[wi].dead) {
          break;
        }
      }
    }
  }
  return "";
}

opec_campaign::CampaignResult CampaignServer::TakeCampaignResult() {
  opec_campaign::CampaignResult result;
  result.results = std::move(job_results_);
  result.jobs_used = static_cast<int>(stats_.workers == 0 ? 1 : stats_.workers);
  result.dist = stats_;
  return result;
}

std::vector<opec_fuzz::CaseResult> CampaignServer::TakeFuzzResults() {
  return std::move(case_results_);
}

}  // namespace opec_dist
