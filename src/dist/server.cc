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

constexpr double kEwmaAlpha = 0.3;

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
    : options_(options),
      sweep_(SweepKind::kCampaign),
      campaign_seed_(spec.seed) {
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
  have_.assign(total_, 0);
  if (total_ > 0) {
    pending_.push_back(Span{0, total_});
  }
  stats_.queue_high_water = total_;
  stats_.adaptive_units = options_.adaptive_units;
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

size_t CampaignServer::PendingJobs() const {
  size_t n = 0;
  for (const Span& s : pending_) {
    n += s.count;
  }
  return n;
}

bool CampaignServer::UnitFullyRecorded(const Span& s) const {
  for (size_t i = s.start; i < s.start + s.count; ++i) {
    if (!have_[i]) {
      return false;
    }
  }
  return true;
}

std::string CampaignServer::SizeKey(size_t index) const {
  if (sweep_ == SweepKind::kFuzz) {
    return "fuzz";
  }
  const opec_campaign::JobSpec& spec = resolved_[index];
  return spec.app + "|" + std::to_string(static_cast<int>(spec.mode)) + "|" +
         std::to_string(static_cast<int>(spec.engine));
}

size_t CampaignServer::CarveCount(const Span& s) const {
  size_t fixed = options_.unit_size == 0 ? 1 : options_.unit_size;
  if (!options_.adaptive_units) {
    return std::min(fixed, s.count);
  }
  size_t cap = std::min(options_.max_unit_size == 0 ? size_t{1} : options_.max_unit_size,
                        s.count);
  double target_ns = static_cast<double>(options_.target_unit_ms) * 1e6;
  double acc = 0.0;
  size_t n = 0;
  while (n < cap) {
    auto it = ewma_ns_.find(SizeKey(s.start + n));
    if (it == ewma_ns_.end() || it->second <= 0.0) {
      // No sample for this job class yet: bootstrap with the fixed size so
      // the first units still parallelize.
      if (n == 0) {
        return std::min(fixed, cap);
      }
      break;
    }
    if (n > 0 && acc + it->second > target_ns) {
      break;
    }
    acc += it->second;
    ++n;
  }
  return std::max<size_t>(1, n);
}

void CampaignServer::NoteUnitSize(size_t carved) {
  uint64_t c = static_cast<uint64_t>(carved);
  if (stats_.unit_size_min == 0 || c < stats_.unit_size_min) {
    stats_.unit_size_min = c;
  }
  stats_.unit_size_max = std::max(stats_.unit_size_max, c);
}

void CampaignServer::EnqueueFrame(size_t wi, const Frame& frame) {
  WorkerState& w = workers_[wi];
  if (w.dead) {
    return;
  }
  std::vector<uint8_t> bytes = EncodeFrame(frame);
  w.outbox_bytes += bytes.size();
  w.outbox.push_back(std::move(bytes));
  if (w.outbox_bytes > options_.outbox_max_bytes) {
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
      return;  // peer's pipe is full; POLLOUT will resume the drain
    }
    w.outbox_off += static_cast<size_t>(n);
    w.outbox_bytes -= static_cast<uint64_t>(n);
    if (w.outbox_off == w.outbox.front().size()) {
      w.outbox.pop_front();
      w.outbox_off = 0;
    }
  }
}

void CampaignServer::KillWorker(size_t wi, const char* why) {
  WorkerState& w = workers_[wi];
  if (w.dead) {
    return;
  }
  w.dead = true;
  w.transport->Close();
  w.outbox.clear();
  w.outbox_off = 0;
  w.outbox_bytes = 0;
  if (!w.shutdown_sent) {
    ++stats_.workers_died;
    std::fprintf(stderr, "dist: worker %zu (%s) lost: %s\n", wi,
                 w.name.empty() ? "?" : w.name.c_str(), why);
  }
  RequeueWorkerUnits(wi);
}

void CampaignServer::DropConnection(size_t wi, const char* why) {
  WorkerState& w = workers_[wi];
  if (w.dead) {
    return;
  }
  if (!w.resumable || !w.hello_done || w.shutdown_sent) {
    KillWorker(wi, why);
    return;
  }
  // A resumable worker's link dropped: park its leases under its worker id.
  // If it reconnects before the lease clock runs out it resumes in place;
  // otherwise ExpireLeases falls back to the plain requeue path.
  w.dead = true;
  w.transport->Close();
  w.outbox.clear();
  w.outbox_off = 0;
  w.outbox_bytes = 0;
  ++stats_.links_lost;
  std::fprintf(stderr, "dist: worker %zu (%s) link lost: %s; leases parked\n", wi,
               w.name.empty() ? "?" : w.name.c_str(), why);
  ParkWorkerUnits(wi);
}

void CampaignServer::RequeueUnit(uint64_t unit_id, bool expired) {
  auto issued_it = issued_.find(unit_id);
  auto lease_it = leases_.find(unit_id);
  if (lease_it != leases_.end()) {
    const Lease& lease = lease_it->second;
    if (!lease.parked && lease.worker != kNoWorker && lease.worker < workers_.size()) {
      WorkerState& holder = workers_[lease.worker];
      if (holder.inflight > 0) {
        --holder.inflight;
      }
    }
    leases_.erase(lease_it);
  }
  if (issued_it == issued_.end()) {
    return;
  }
  Span s = issued_it->second;
  issued_.erase(issued_it);
  if (UnitFullyRecorded(s)) {
    // A late/duplicate delivery already recorded every row: the unit is done,
    // not lost — erase it silently so the stats never double-count it.
    return;
  }
  pending_.push_front(s);
  if (expired) {
    ++stats_.leases_expired;
  } else {
    ++stats_.units_reissued;
  }
  stats_.queue_high_water =
      std::max(stats_.queue_high_water, static_cast<uint64_t>(PendingJobs()));
}

void CampaignServer::RequeueWorkerUnits(size_t wi) {
  std::vector<uint64_t> requeue;
  for (const auto& [unit_id, lease] : leases_) {
    if (!lease.parked && lease.worker == wi) {
      requeue.push_back(unit_id);
    }
  }
  // Recovery work goes to the *front* of the queue so the sweep's tail is not
  // stuck behind untouched units. Requeue in descending span order so the
  // front ends up sorted ascending — a deterministic reissue order.
  std::sort(requeue.begin(), requeue.end(), [&](uint64_t a, uint64_t b) {
    return issued_[a].start > issued_[b].start;
  });
  for (uint64_t unit_id : requeue) {
    RequeueUnit(unit_id, /*expired=*/false);
  }
  workers_[wi].inflight = 0;
}

void CampaignServer::ParkWorkerUnits(size_t wi) {
  WorkerState& w = workers_[wi];
  std::vector<uint64_t> held;
  for (const auto& [unit_id, lease] : leases_) {
    if (!lease.parked && lease.worker == wi) {
      held.push_back(unit_id);
    }
  }
  for (uint64_t unit_id : held) {
    auto issued_it = issued_.find(unit_id);
    if (issued_it == issued_.end() || UnitFullyRecorded(issued_it->second)) {
      if (issued_it != issued_.end()) {
        issued_.erase(issued_it);
      }
      leases_.erase(unit_id);
      continue;
    }
    Lease& lease = leases_[unit_id];
    lease.parked = true;
    lease.worker = kNoWorker;
    lease.worker_id = w.worker_id;
  }
  w.inflight = 0;
}

void CampaignServer::AdoptParkedLeases(size_t wi) {
  WorkerState& w = workers_[wi];
  Clock::time_point now = Clock::now();
  for (auto& [unit_id, lease] : leases_) {
    if (!lease.parked || lease.worker_id != w.worker_id) {
      continue;
    }
    lease.parked = false;
    lease.worker = wi;
    lease.needs_resend = true;
    if (options_.lease_ms != 0) {
      lease.deadline = now + std::chrono::milliseconds(options_.lease_ms);
    }
    ++w.inflight;
  }
}

void CampaignServer::ExpireLeases(Clock::time_point now) {
  if (options_.lease_ms == 0) {
    return;
  }
  std::vector<uint64_t> expired;
  for (const auto& [unit_id, lease] : leases_) {
    if (lease.deadline <= now) {
      expired.push_back(unit_id);
    }
  }
  std::sort(expired.begin(), expired.end(), [&](uint64_t a, uint64_t b) {
    return issued_[a].start > issued_[b].start;
  });
  for (uint64_t unit_id : expired) {
    RequeueUnit(unit_id, /*expired=*/true);
  }
}

void CampaignServer::RecordResult(size_t wi, const ResultMsg& msg) {
  WorkerState& w = workers_[wi];
  if (!w.hello_done) {
    return;
  }
  auto lease_it = leases_.find(msg.unit_id);
  bool own_lease = lease_it != leases_.end() && !lease_it->second.parked &&
                   lease_it->second.worker == wi;
  if (!own_lease) {
    // The lease expired (and was requeued/re-carved) or belongs to a prior
    // incarnation: the rows still count via first-write-wins below, but the
    // delivery itself is late.
    ++stats_.late_results;
  }

  Clock::time_point now = Clock::now();
  if (own_lease && sweep_ == SweepKind::kFuzz && lease_it->second.rows > 0) {
    double elapsed_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - lease_it->second.issued_at)
            .count());
    double per_row = elapsed_ns / static_cast<double>(lease_it->second.rows);
    double& e = ewma_ns_["fuzz"];
    e = e <= 0.0 ? per_row : (1.0 - kEwmaAlpha) * e + kEwmaAlpha * per_row;
  }

  size_t rows = msg.indexes.size();
  for (size_t k = 0; k < rows; ++k) {
    size_t index = static_cast<size_t>(msg.indexes[k]);
    if (index >= total_) {
      continue;  // malformed row; drop rather than corrupt the table
    }
    if (sweep_ == SweepKind::kCampaign && k < msg.jobs.size() && msg.jobs[k].wall_ns > 0) {
      // Feed the sizing model from every executed row, duplicates included —
      // they are real observations of this job class's wall time.
      const opec_campaign::JobSpec& spec = msg.jobs[k].spec;
      std::string key = spec.app + "|" + std::to_string(static_cast<int>(spec.mode)) +
                        "|" + std::to_string(static_cast<int>(spec.engine));
      double x = static_cast<double>(msg.jobs[k].wall_ns);
      double& e = ewma_ns_[key];
      e = e <= 0.0 ? x : (1.0 - kEwmaAlpha) * e + kEwmaAlpha * x;
    }
    if (have_[index]) {
      continue;  // duplicate delivery of a re-issued unit; first write wins
    }
    if (sweep_ == SweepKind::kCampaign) {
      if (k >= msg.jobs.size()) {
        continue;
      }
      job_results_[index] = msg.jobs[k];
      job_results_[index].index = index;
    } else {
      if (k >= msg.cases.size()) {
        continue;
      }
      case_results_[index] = msg.cases[k];
    }
    have_[index] = 1;
    ++done_count_;
    if (on_progress_) {
      on_progress_(done_count_, total_);
    }
  }

  auto issued_it = issued_.find(msg.unit_id);
  bool complete = issued_it == issued_.end() || UnitFullyRecorded(issued_it->second);
  if (own_lease) {
    if (complete) {
      leases_.erase(msg.unit_id);
      if (issued_it != issued_.end()) {
        issued_.erase(issued_it);
      }
      if (w.inflight > 0) {
        --w.inflight;
      }
    } else {
      // Partial delivery (resume flow): the worker still owns the remainder;
      // give it a fresh lease clock.
      if (options_.lease_ms != 0) {
        lease_it->second.deadline = now + std::chrono::milliseconds(options_.lease_ms);
      }
    }
  } else if (complete && issued_it != issued_.end()) {
    // A late delivery finished a unit someone else still holds: cancel the
    // surviving lease silently — the unit is done, nothing was lost.
    auto live = leases_.find(msg.unit_id);
    if (live != leases_.end()) {
      if (!live->second.parked && live->second.worker != kNoWorker &&
          live->second.worker < workers_.size()) {
        WorkerState& holder = workers_[live->second.worker];
        if (holder.inflight > 0) {
          --holder.inflight;
        }
      }
      leases_.erase(live);
    }
    issued_.erase(issued_it);
  }
}

bool CampaignServer::SendAssign(size_t wi, uint64_t unit_id, const Span& span) {
  AssignMsg assign;
  assign.unit_id = unit_id;
  for (size_t i = span.start; i < span.start + span.count; ++i) {
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
  if (assign.indexes.empty()) {
    return false;
  }
  EnqueueFrame(wi, MakeFrame(FrameType::kAssign, [&](opec_hw::StateWriter& sw) {
                 WriteAssign(sw, sweep_, assign);
               }));
  return true;
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
    w.dead = true;
    w.transport->Close();
    w.outbox.clear();
    w.outbox_off = 0;
    w.outbox_bytes = 0;
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
  w.worker_id = hello.worker_id;
  w.resumable = hello.resumable && !hello.worker_id.empty();
  w.hello_done = true;
  if (!w.worker_id.empty()) {
    // A live connection claiming the same id is stale (the worker gave up on
    // it and redialed): park it and let the new connection adopt.
    for (size_t j = 0; j < workers_.size(); ++j) {
      if (j != wi && !workers_[j].dead && workers_[j].hello_done &&
          workers_[j].worker_id == w.worker_id) {
        DropConnection(j, "superseded by reconnect");
      }
    }
    w.session_key = w.worker_id;
    if (seen_ids_.insert(w.worker_id).second) {
      ++stats_.workers;
      session_order_.push_back(w.session_key);
      sessions_[w.session_key];
    } else {
      ++stats_.reconnects;
    }
  } else {
    w.session_key = "conn#" + std::to_string(wi);
    ++stats_.workers;
    session_order_.push_back(w.session_key);
    sessions_[w.session_key];
  }
  if (w.resumable) {
    AdoptParkedLeases(wi);
  }
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
      Clock::time_point now = Clock::now();
      // Adopted leases first: re-assign the remainder of a unit that survived
      // a link drop, under its original unit id.
      for (;;) {
        uint64_t resume_id = 0;
        bool have_resume = false;
        for (const auto& [unit_id, lease] : leases_) {
          if (!lease.parked && lease.worker == wi && lease.needs_resend &&
              (!have_resume || unit_id < resume_id)) {
            resume_id = unit_id;
            have_resume = true;
          }
        }
        if (!have_resume) {
          break;
        }
        Lease& lease = leases_[resume_id];
        lease.needs_resend = false;
        auto issued_it = issued_.find(resume_id);
        if (issued_it == issued_.end() || UnitFullyRecorded(issued_it->second)) {
          // Everything in it was recorded while the link was down.
          if (issued_it != issued_.end()) {
            issued_.erase(issued_it);
          }
          leases_.erase(resume_id);
          if (w.inflight > 0) {
            --w.inflight;
          }
          continue;
        }
        if (options_.lease_ms != 0) {
          lease.deadline = now + std::chrono::milliseconds(options_.lease_ms);
        }
        lease.rows = 0;
        for (size_t i = issued_it->second.start;
             i < issued_it->second.start + issued_it->second.count; ++i) {
          if (!have_[i]) {
            ++lease.rows;
          }
        }
        SendAssign(wi, resume_id, issued_it->second);
        return true;
      }
      // Advance the front span past rows recorded by late/duplicate
      // deliveries — re-issuing them would burn a worker on jobs that cannot
      // advance done_count_ (with a tiny --lease-ms that livelocks the sweep).
      while (!pending_.empty()) {
        Span& front = pending_.front();
        while (front.count > 0 && have_[front.start]) {
          ++front.start;
          --front.count;
        }
        if (front.count == 0) {
          pending_.pop_front();
        } else {
          break;
        }
      }
      if (!pending_.empty()) {
        Span& front = pending_.front();
        size_t take = CarveCount(front);
        Span unit{front.start, take};
        front.start += take;
        front.count -= take;
        if (front.count == 0) {
          pending_.pop_front();
        }
        uint64_t unit_id = next_unit_id_++;
        issued_[unit_id] = unit;
        Lease lease;
        lease.worker = wi;
        lease.worker_id = w.worker_id;
        lease.issued_at = now;
        lease.deadline = now + std::chrono::milliseconds(
                                   options_.lease_ms == 0 ? 0 : options_.lease_ms);
        lease.rows = 0;
        for (size_t i = unit.start; i < unit.start + unit.count; ++i) {
          if (!have_[i]) {
            ++lease.rows;
          }
        }
        leases_[unit_id] = lease;
        ++stats_.units_issued;
        ++w.inflight;
        Session& session = sessions_[w.session_key];
        session.max_inflight = std::max(session.max_inflight, w.inflight);
        NoteUnitSize(take);
        SendAssign(wi, unit_id, unit);
      } else if (Done()) {
        w.shutdown_sent = true;
        EnqueueFrame(wi, MakeFrame(FrameType::kShutdown));
      } else {
        NoWorkMsg nw;
        nw.retry_ms = options_.retry_ms;
        EnqueueFrame(wi, MakeFrame(FrameType::kNoWork,
                                   [&](opec_hw::StateWriter& sw) { WriteNoWork(sw, nw); }));
      }
      return !workers_[wi].dead;
    }
    case FrameType::kResult: {
      if (!w.hello_done) {
        KillWorker(wi, "result before hello");
        return false;
      }
      ResultMsg msg = ReadResult(r, sweep_);
      RecordResult(wi, msg);
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
    for (WorkerState& w : workers_) {
      w.dead = true;
      w.transport->Close();
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
        DropConnection(wi, "disconnected");
        return false;
      }
      if (st == Transport::Status::kError) {
        DropConnection(wi, workers_[wi].transport->error().c_str());
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
            AddWorker(std::make_unique<FdTransport>(cfd));
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
      // Connected but never said hello; nothing to drain.
      workers_[i].dead = true;
      workers_[i].transport->Close();
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
          workers_[wi].dead = true;  // orderly exit after shutdown
          workers_[wi].transport->Close();
          break;
        }
        if (!got) {
          break;
        }
        try {
          opec_support::ScopedCheckThrow capture;
          if (frame.type == FrameType::kResult) {
            opec_hw::StateReader r(frame.payload);
            ResultMsg msg = ReadResult(r, sweep_);
            RecordResult(wi, msg);
          } else if (frame.type == FrameType::kRequestWork) {
            workers_[wi].shutdown_sent = true;
            EnqueueFrame(wi, MakeFrame(FrameType::kShutdown));
          }
          // Anything else during drain is ignorable.
        } catch (const std::exception&) {
          workers_[wi].dead = true;
          workers_[wi].transport->Close();
          break;
        }
        if (workers_[wi].dead) {
          break;
        }
      }
    }
  }

  // Fold per-session counters (they survive reconnects: one entry per worker
  // id, or per connection for anonymous workers) into the stats.
  for (const std::string& key : session_order_) {
    stats_.max_inflight.push_back(sessions_[key].max_inflight);
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
