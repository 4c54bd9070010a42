#include "runtime/cross_shard_agent.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/str_util.h"
#include "log/file_backend.h"

namespace tpm {

// Coordinator WAL record grammar (one record per line, '|'-separated; the
// definition name comes last so it may contain anything):
//   SBEGIN|<gsn>|<param>|<def_name>   write-ahead of taking ownership
//   STAIL|<gsn>|<k>                   write-ahead of tail attempt k
//   SDECIDE|<gsn>|C|<tail_index>      global commit (-1: no tail)
//   SDECIDE|<gsn>|A                   global abort (explicit or presumed)
//   SEND|<gsn>                        all sub-processes terminal
namespace {
constexpr const char* kRecBegin = "SBEGIN";
constexpr const char* kRecTail = "STAIL";
constexpr const char* kRecDecide = "SDECIDE";
constexpr const char* kRecEnd = "SEND";
}  // namespace

class CrossShardAgent::RenamingListener : public CrashPointListener {
 public:
  explicit RenamingListener(CrashPointListener* user) : user_(user) {}

  bool OnCrashPoint(const char* site) override {
    if (user_ == nullptr) return false;
    // "wal/<site>" -> "coordinator/<site>", so a site-filtered sweep can
    // target the coordinator log without crashing the shard WALs too.
    const char* slash = std::strchr(site, '/');
    if (slash == nullptr) return user_->OnCrashPoint(site);
    const std::string renamed = StrCat("coordinator", slash);
    return user_->OnCrashPoint(renamed.c_str());
  }

 private:
  CrashPointListener* user_;
};

CrossShardAgent::CrossShardAgent(
    Options options, const ShardRouter* router,
    std::vector<std::unique_ptr<RuntimeShard>>* shards)
    : options_(std::move(options)), router_(router), shards_(shards) {
  live_.resize(shards_->size());
  held_.resize(shards_->size());
}

CrossShardAgent::~CrossShardAgent() { Shutdown(); }

Status CrossShardAgent::Init() {
  switch (options_.log_mode) {
    case ShardLogMode::kNone:
      break;
    case ShardLogMode::kMemory:
      wal_ = std::make_unique<Wal>(/*synchronous=*/true);
      break;
    case ShardLogMode::kFile: {
      TPM_ASSIGN_OR_RETURN(auto backend,
                           FileStorageBackend::Open(options_.wal_path));
      wal_ = std::make_unique<Wal>(std::move(backend), /*synchronous=*/true);
      break;
    }
  }
  if (wal_ != nullptr && options_.crash_listener != nullptr) {
    renamer_ = std::make_unique<RenamingListener>(options_.crash_listener);
    wal_->SetCrashPointListener(renamer_.get());
  }
  return Status::OK();
}

Status CrossShardAgent::AppendRecord(const std::string& record) {
  if (wal_ == nullptr) return Status::OK();  // kNone: no durability
  TPM_RETURN_IF_ERROR(wal_->Append(record));
  return wal_->Flush();
}

void CrossShardAgent::StickyFail(const Status& status) {
  if (error_.ok()) {
    error_ = Status(status.code(),
                    StrCat("cross-shard coordinator: ", status.message()));
  }
}

Result<SubmitTicket> CrossShardAgent::Begin(const ProcessDef* def,
                                            int64_t param) {
  std::unique_lock<std::mutex> lock(mu_);
  TPM_RETURN_IF_ERROR(error_);
  const int64_t gsn = next_gsn_++;
  // Write-ahead: the spanning process durably exists before any shard
  // sees a sub-process, so recovery either resolves it or never knew it.
  Status logged =
      AppendRecord(StrCat(kRecBegin, "|", gsn, "|", param, "|", def->name()));
  if (!logged.ok()) {
    StickyFail(logged);
    return error_;
  }
  Result<SplitPlan> plan =
      router_->Split(*def, StrCat(def->name(), "@g", gsn));
  if (!plan.ok()) return plan.status();  // recovery will presume-abort gsn

  auto state = std::make_unique<SpanState>();
  state->gsn = gsn;
  state->original = def;
  state->param = param;
  state->plan = std::move(*plan);
  state->trunk.resize(state->plan.subs.size());
  for (size_t i = 0; i < state->plan.subs.size(); ++i) {
    state->trunk[i].plan = &state->plan.subs[i];
  }
  state->tails.resize(state->plan.tails.size());
  for (size_t i = 0; i < state->plan.tails.size(); ++i) {
    state->tails[i].plan = &state->plan.tails[i];
  }

  SubmitTicket ticket;
  ticket.gsn = gsn;
  ticket.shard = state->plan.subs.front().shard;
  ticket.pid = state->first_pid.get_future().share();

  SpanState* st = state.get();
  spans_[gsn] = std::move(state);
  ++in_flight_;
  ++spans_begun_;
  LaunchReady(st);
  return ticket;
}

CrossShardAgent::SubState* CrossShardAgent::FindSub(SpanState* st,
                                                    bool is_tail, int index) {
  std::vector<SubState>& subs = is_tail ? st->tails : st->trunk;
  if (index < 0 || index >= static_cast<int>(subs.size())) return nullptr;
  return &subs[static_cast<size_t>(index)];
}

CrossShardAgent::SubState* CrossShardAgent::FindSubByPid(int shard,
                                                         ProcessId pid,
                                                         SpanState** st_out,
                                                         SubRef* ref_out) {
  auto ref = by_pid_.find({shard, pid.value()});
  if (ref == by_pid_.end()) return nullptr;
  auto span = spans_.find(ref->second.gsn);
  if (span == spans_.end()) return nullptr;
  *st_out = span->second.get();
  *ref_out = ref->second;
  return FindSub(span->second.get(), ref->second.is_tail, ref->second.index);
}

void CrossShardAgent::LaunchReady(SpanState* st) {
  if (st->decided) return;
  if (options_.span_order == OrderMode::kStrong) {
    // Strong composite order: strictly sequential — the next trunk slice
    // is submitted only after the previous one voted.
    for (size_t i = 0; i < st->trunk.size(); ++i) {
      if (!st->trunk[i].submitted) {
        if (i == 0 || st->trunk[i - 1].voted) {
          SubmitSub(st, /*is_tail=*/false, static_cast<int>(i));
        }
        return;
      }
      if (!st->trunk[i].voted) return;
    }
    return;
  }
  // Weak composite order: every slice whose skeleton predecessors voted
  // runs in parallel with its order-independent peers.
  for (size_t i = 0; i < st->trunk.size(); ++i) {
    if (st->trunk[i].submitted) continue;
    bool ready = true;
    for (int pred : st->plan.subs[i].skeleton_preds) {
      if (!st->trunk[static_cast<size_t>(pred)].voted) {
        ready = false;
        break;
      }
    }
    if (ready) SubmitSub(st, /*is_tail=*/false, static_cast<int>(i));
  }
}

void CrossShardAgent::SubmitSub(SpanState* st, bool is_tail, int index) {
  SubState* sub = FindSub(st, is_tail, index);
  sub->submitted = true;
  st->submission_order.emplace_back(is_tail, index);
  const int64_t gsn = st->gsn;
  (*shards_)[static_cast<size_t>(sub->plan->shard)]->PostAgentOp(
      [this, gsn, is_tail, index] { RunSubmitOp(gsn, is_tail, index); });
}

void CrossShardAgent::RunSubmitOp(int64_t gsn, bool is_tail, int index) {
  const ProcessDef* def = nullptr;
  int64_t param = 0;
  int shard = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto span = spans_.find(gsn);
    if (span == spans_.end()) return;
    SubState* sub = FindSub(span->second.get(), is_tail, index);
    def = sub->plan->def.get();
    param = span->second->param;
    shard = sub->plan->shard;
  }
  TransactionalProcessScheduler* scheduler =
      (*shards_)[static_cast<size_t>(shard)]->scheduler();
  Result<ProcessId> pid = scheduler->SubmitHeld(def, param);
  if (!pid.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    auto span = spans_.find(gsn);
    if (span == spans_.end()) return;
    SpanState* st = span->second.get();
    DeliverFirstPid(st, pid.status());
    HandleSubFailure(st, SubRef{gsn, is_tail, index});
    return;
  }
  held_[static_cast<size_t>(shard)].insert(*pid);
  // The gsn order is the composite serialization order: on every shard,
  // each spanning slice is SGT-ordered after every earlier-gsn slice
  // still alive there, so the global order is acyclic by construction.
  std::vector<ProcessId> before;
  bool abort_now = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto span = spans_.find(gsn);
    if (span == spans_.end()) return;
    SpanState* st = span->second.get();
    SubState* sub = FindSub(st, is_tail, index);
    sub->admitted = true;
    sub->pid = *pid;
    by_pid_[{shard, pid->value()}] = SubRef{gsn, is_tail, index};
    for (const auto& [live_gsn, live_pid] : live_[static_cast<size_t>(shard)]) {
      if (live_gsn < gsn) before.push_back(live_pid);
    }
    live_[static_cast<size_t>(shard)].emplace_back(gsn, *pid);
    DeliverFirstPid(st, *pid);
    // The global decision fell while this submission was in flight (some
    // sibling aborted): resolve immediately, off the agent lock.
    if (st->decided && !st->commit) abort_now = true;
  }
  for (ProcessId b : before) (void)scheduler->AddExternalOrder(b, *pid);
  if (abort_now) (void)scheduler->ResolveHeldCommit(*pid, /*commit=*/false);
}

void CrossShardAgent::RunResolveOp(int shard, ProcessId pid, bool commit) {
  TransactionalProcessScheduler* scheduler =
      (*shards_)[static_cast<size_t>(shard)]->scheduler();
  // NotFound: the sub-process already terminated (e.g. aborted before the
  // decision arrived) — already resolved.
  (void)scheduler->ResolveHeldCommit(pid, commit);
}

void CrossShardAgent::DeliverFirstPid(SpanState* st, Result<ProcessId> pid) {
  if (st->first_pid_set) return;
  st->first_pid_set = true;
  st->first_pid.set_value(std::move(pid));
}

void CrossShardAgent::OnCommitHeld(int shard, ProcessId pid) {
  std::lock_guard<std::mutex> lock(mu_);
  Event event;
  event.shard = shard;
  event.vote = true;
  event.pid = pid;
  if (options_.mode == TickMode::kLockstep) {
    mailbox_.push_back(event);
    return;
  }
  HandleEvent(event);
}

void CrossShardAgent::OnProcessTerminated(int shard, ProcessId pid,
                                          ProcessOutcome outcome) {
  // A pinned process is none of the agent's business.
  if (held_[static_cast<size_t>(shard)].erase(pid) == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  Event event;
  event.shard = shard;
  event.vote = false;
  event.pid = pid;
  event.outcome = outcome;
  if (options_.mode == TickMode::kLockstep) {
    mailbox_.push_back(event);
    return;
  }
  HandleEvent(event);
}

void CrossShardAgent::Pump() {
  std::lock_guard<std::mutex> lock(mu_);
  if (mailbox_.empty()) return;
  std::vector<Event> events;
  events.swap(mailbox_);
  // Deterministic relay order: by shard index, FIFO within a shard (each
  // shard's event subsequence is a deterministic function of its lockstep
  // execution; the stable sort removes the cross-shard arrival races).
  std::stable_sort(
      events.begin(), events.end(),
      [](const Event& a, const Event& b) { return a.shard < b.shard; });
  for (const Event& event : events) HandleEvent(event);
}

void CrossShardAgent::HandleEvent(const Event& event) {
  SpanState* st = nullptr;
  SubRef ref;
  SubState* sub = FindSubByPid(event.shard, event.pid, &st, &ref);
  if (sub == nullptr) return;  // not a spanning sub-process
  if (event.vote) {
    HandleVote(st, ref);
  } else {
    HandleTerminated(st, ref, event.outcome);
  }
}

void CrossShardAgent::HandleVote(SpanState* st, const SubRef& ref) {
  SubState* sub = FindSub(st, ref.is_tail, ref.index);
  sub->voted = true;
  if (st->decided) return;  // a pending global abort will resolve it
  if (ref.is_tail) {
    // The chosen ◁ tail voted: the whole spanning process is prepared.
    Decide(st, /*commit=*/true, ref.index);
    return;
  }
  LaunchReady(st);
  for (const SubState& trunk : st->trunk) {
    if (!trunk.voted) return;
  }
  if (st->tails.empty()) {
    Decide(st, /*commit=*/true, /*tail_index=*/-1);
  } else if (st->current_tail < 0) {
    StartTailAttempt(st, 0);
  }
}

void CrossShardAgent::StartTailAttempt(SpanState* st, int k) {
  st->current_tail = k;
  Status logged = AppendRecord(StrCat(kRecTail, "|", st->gsn, "|", k));
  if (!logged.ok()) {
    StickyFail(logged);
    return;
  }
  SubmitSub(st, /*is_tail=*/true, k);
}

void CrossShardAgent::HandleSubFailure(SpanState* st, const SubRef& ref) {
  SubState* sub = FindSub(st, ref.is_tail, ref.index);
  sub->terminated = true;
  if (st->decided) {
    MaybeFinish(st);
    return;
  }
  if (ref.is_tail && ref.index == st->current_tail) {
    // ◁ preference order across shards: this alternative failed, try the
    // next one; only exhausting all of them aborts the spanning process.
    if (ref.index + 1 < static_cast<int>(st->tails.size())) {
      StartTailAttempt(st, ref.index + 1);
      return;
    }
  }
  Decide(st, /*commit=*/false, /*tail_index=*/-1);
  MaybeFinish(st);
}

void CrossShardAgent::HandleTerminated(SpanState* st, const SubRef& ref,
                                       ProcessOutcome outcome) {
  SubState* sub = FindSub(st, ref.is_tail, ref.index);
  if (sub->admitted) {
    auto& live = live_[static_cast<size_t>(sub->plan->shard)];
    live.erase(std::remove_if(live.begin(), live.end(),
                              [&](const std::pair<int64_t, ProcessId>& e) {
                                return e.second == sub->pid;
                              }),
               live.end());
  }
  sub->terminated = true;
  sub->committed = outcome == ProcessOutcome::kCommitted;
  if (!st->decided) {
    // A terminal before the global decision is an abort (a held
    // sub-process cannot commit unilaterally): a victimized or failed
    // slice. A trunk abort dooms the process; a tail abort advances the
    // ◁ preference order.
    HandleSubFailure(st, ref);
    return;
  }
  MaybeFinish(st);
}

void CrossShardAgent::Decide(SpanState* st, bool commit, int tail_index) {
  if (st->decided || !error_.ok()) return;
  // The decide crash point models losing the coordinator at the apex of
  // 2PC: every participant voted, no decision record exists. Recovery
  // must presume abort (the participants' votes alone prove nothing).
  if (options_.crash_listener != nullptr &&
      options_.crash_listener->OnCrashPoint(kCoordCrashSiteDecide)) {
    StickyFail(Status::Unavailable("injected crash at decision point"));
    return;
  }
  Status logged = AppendRecord(
      commit ? StrCat(kRecDecide, "|", st->gsn, "|C|", tail_index)
             : StrCat(kRecDecide, "|", st->gsn, "|A"));
  if (!logged.ok()) {
    StickyFail(logged);
    return;
  }
  st->decided = true;
  st->commit = commit;
  st->decided_tail = tail_index;
  if (commit) {
    // Phase two, forward order: release the trunk, then the chosen tail.
    for (const auto& [is_tail, index] : st->submission_order) {
      if (is_tail && index != tail_index) continue;
      SubState* sub = FindSub(st, is_tail, index);
      if (sub->terminated || !sub->admitted) continue;
      const int shard = sub->plan->shard;
      const ProcessId pid = sub->pid;
      (*shards_)[static_cast<size_t>(shard)]->PostAgentOp(
          [this, shard, pid] { RunResolveOp(shard, pid, /*commit=*/true); });
    }
    return;
  }
  // Global abort: resolve in REVERSE submission order (Lemma 2 — the
  // compensations of later slices precede those of earlier ones; FIFO per
  // shard preserves this wherever it can matter, i.e. shard-locally).
  for (auto it = st->submission_order.rbegin();
       it != st->submission_order.rend(); ++it) {
    SubState* sub = FindSub(st, it->first, it->second);
    if (sub->terminated || !sub->admitted) continue;
    const int shard = sub->plan->shard;
    const ProcessId pid = sub->pid;
    (*shards_)[static_cast<size_t>(shard)]->PostAgentOp(
        [this, shard, pid] { RunResolveOp(shard, pid, /*commit=*/false); });
  }
}

void CrossShardAgent::MaybeFinish(SpanState* st) {
  if (st->done || !st->decided) return;
  for (const auto& [is_tail, index] : st->submission_order) {
    const SubState* sub = FindSub(st, is_tail, index);
    if (sub->submitted && !sub->terminated) return;
  }
  Status logged = AppendRecord(StrCat(kRecEnd, "|", st->gsn));
  if (!logged.ok()) {
    StickyFail(logged);
    return;
  }
  st->done = true;
  --in_flight_;
  if (st->commit) {
    ++spans_committed_;
  } else {
    ++spans_aborted_;
  }
}

int64_t CrossShardAgent::InFlightCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_;
}

SpanOutcome CrossShardAgent::OutcomeOf(int64_t gsn) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto span = spans_.find(gsn);
  if (span == spans_.end()) return SpanOutcome::kUnknown;
  if (!span->second->done) return SpanOutcome::kInFlight;
  return span->second->commit ? SpanOutcome::kCommitted
                              : SpanOutcome::kAborted;
}

Status CrossShardAgent::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

int64_t CrossShardAgent::spans_begun() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_begun_;
}
int64_t CrossShardAgent::spans_committed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_committed_;
}
int64_t CrossShardAgent::spans_aborted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_aborted_;
}

Result<CrossShardAgent::SpanRecoveryPlan> CrossShardAgent::RecoverScan(
    const std::map<std::string, const ProcessDef*>& defs_by_name) {
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecoveryPlan plan;
  if (wal_ == nullptr) return plan;
  for (const auto& [gsn, st] : spans_) {
    if (!st->recovered) {
      return Status::FailedPrecondition(
          "RecoverScan on an agent with live spanning processes");
    }
  }
  spans_.clear();
  by_pid_.clear();
  for (auto& live : live_) live.clear();
  in_flight_ = 0;

  for (const std::string& record : wal_->records()) {
    std::vector<std::string> fields = StrSplit(record, '|');
    if (fields.size() < 2) {
      return Status::Internal(
          StrCat("coordinator log: malformed record '", record, "'"));
    }
    TPM_ASSIGN_OR_RETURN(int64_t gsn, ParseInt64(fields[1]));
    if (gsn >= next_gsn_) next_gsn_ = gsn + 1;
    if (fields[0] == kRecBegin) {
      if (fields.size() < 4) {
        return Status::Internal(
            StrCat("coordinator log: malformed SBEGIN '", record, "'"));
      }
      TPM_ASSIGN_OR_RETURN(int64_t param, ParseInt64(fields[2]));
      // The name is the tail of the record (it may contain '|').
      std::string name = fields[3];
      for (size_t i = 4; i < fields.size(); ++i) {
        name += '|';
        name += fields[i];
      }
      auto def = defs_by_name.find(name);
      if (def == defs_by_name.end()) {
        return Status::NotFound(StrCat(
            "coordinator log references unknown process definition '", name,
            "' (g", gsn, "); pass it in defs_by_name"));
      }
      // Deterministic re-split: same definition, same prefix -> the same
      // sub-definitions the crashed incarnation submitted.
      TPM_ASSIGN_OR_RETURN(SplitPlan split,
                           router_->Split(*def->second,
                                          StrCat(name, "@g", gsn)));
      auto state = std::make_unique<SpanState>();
      state->gsn = gsn;
      state->original = def->second;
      state->param = param;
      state->plan = std::move(split);
      state->trunk.resize(state->plan.subs.size());
      for (size_t i = 0; i < state->plan.subs.size(); ++i) {
        state->trunk[i].plan = &state->plan.subs[i];
      }
      state->tails.resize(state->plan.tails.size());
      for (size_t i = 0; i < state->plan.tails.size(); ++i) {
        state->tails[i].plan = &state->plan.tails[i];
      }
      state->recovered = true;
      state->first_pid_set = true;  // nobody is waiting on the promise
      ++in_flight_;
      spans_[gsn] = std::move(state);
    } else if (fields[0] == kRecTail) {
      auto span = spans_.find(gsn);
      if (span != spans_.end() && fields.size() >= 3) {
        TPM_ASSIGN_OR_RETURN(int64_t k, ParseInt64(fields[2]));
        span->second->current_tail = static_cast<int>(k);
      }
    } else if (fields[0] == kRecDecide) {
      auto span = spans_.find(gsn);
      if (span == spans_.end()) {
        return Status::Internal(
            StrCat("coordinator log: SDECIDE for unknown g", gsn));
      }
      span->second->decided = true;
      if (fields.size() >= 3 && fields[2] == "C") {
        span->second->commit = true;
        if (fields.size() >= 4) {
          TPM_ASSIGN_OR_RETURN(int64_t tail, ParseInt64(fields[3]));
          span->second->decided_tail = static_cast<int>(tail);
        }
      }
    } else if (fields[0] == kRecEnd) {
      auto span = spans_.find(gsn);
      if (span == spans_.end()) {
        return Status::Internal(
            StrCat("coordinator log: SEND for unknown g", gsn));
      }
      span->second->done = true;
      --in_flight_;
      if (span->second->commit) {
        ++spans_committed_;
      } else {
        ++spans_aborted_;
      }
    }
  }

  for (const auto& [gsn, st] : spans_) {
    ++spans_begun_;
    for (const SubProcessPlan& sub : st->plan.subs) {
      plan.sub_defs[sub.def->name()] = sub.def.get();
    }
    for (const SubProcessPlan& tail : st->plan.tails) {
      plan.sub_defs[tail.def->name()] = tail.def.get();
    }
    // A durable commit decision binds: the trunk slices (and the chosen
    // tail) whose votes survived in their shard WALs are force-committed
    // during replay. Everything undecided is presumed aborted — a vote
    // alone never commits.
    if (st->decided && st->commit) {
      for (const SubProcessPlan& sub : st->plan.subs) {
        plan.directives.force_commit.insert(sub.def->name());
      }
      if (st->decided_tail >= 0 &&
          st->decided_tail < static_cast<int>(st->plan.tails.size())) {
        plan.directives.force_commit.insert(
            st->plan.tails[static_cast<size_t>(st->decided_tail)]
                .def->name());
      }
    }
  }
  return plan;
}

Status CrossShardAgent::FinishRecovery() {
  std::lock_guard<std::mutex> lock(mu_);
  TPM_RETURN_IF_ERROR(error_);
  for (auto& [gsn, st] : spans_) {
    if (st->done) continue;
    if (!st->decided) {
      // Presumed abort, now made durable: the shard replays have already
      // rolled the undecided votes back (group abort).
      Status logged = AppendRecord(StrCat(kRecDecide, "|", gsn, "|A"));
      if (!logged.ok()) {
        StickyFail(logged);
        return error_;
      }
      st->decided = true;
      st->commit = false;
    }
    Status logged = AppendRecord(StrCat(kRecEnd, "|", gsn));
    if (!logged.ok()) {
      StickyFail(logged);
      return error_;
    }
    st->done = true;
    --in_flight_;
    if (st->commit) {
      ++spans_committed_;
    } else {
      ++spans_aborted_;
    }
  }
  return Status::OK();
}

std::map<std::string, SpanSubProjection> CrossShardAgent::ProjectionInfo()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, SpanSubProjection> info;
  for (const auto& [gsn, st] : spans_) {
    for (size_t i = 0; i < st->plan.subs.size(); ++i) {
      const SubProcessPlan& sub = st->plan.subs[i];
      SpanSubProjection entry;
      entry.gsn = gsn;
      entry.original = st->original;
      entry.to_original = sub.to_original;
      for (int pred : sub.skeleton_preds) {
        entry.forward_preds.push_back(
            st->plan.subs[static_cast<size_t>(pred)].def->name());
      }
      info[sub.def->name()] = std::move(entry);
    }
    for (const SubProcessPlan& tail : st->plan.tails) {
      SpanSubProjection entry;
      entry.gsn = gsn;
      entry.original = st->original;
      entry.to_original = tail.to_original;
      // A tail implicitly follows the whole trunk.
      for (const SubProcessPlan& sub : st->plan.subs) {
        entry.forward_preds.push_back(sub.def->name());
      }
      entry.tail = true;
      info[tail.def->name()] = std::move(entry);
    }
  }
  return info;
}

void CrossShardAgent::Shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [gsn, st] : spans_) {
    DeliverFirstPid(st.get(), Status::Unavailable(
                                  "runtime stopped before the first "
                                  "sub-process was admitted"));
  }
}

}  // namespace tpm
