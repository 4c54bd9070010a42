#include "runtime/global_projection.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/str_util.h"
#include "core/pred.h"
#include "core/recoverability.h"

namespace tpm {

namespace {

/// One shard-local process in the merge.
struct LocalProcess {
  const SpanSubProjection* span = nullptr;  // null: not a spanning slice
  ProcessId global_pid;
  int64_t forward_total = 0;     // kActivity events with inverse == false
  int64_t forward_consumed = 0;
  bool committed = false;        // has a Commit terminal in its history
  size_t vote_position = 0;      // events of its shard before its vote
  bool terminal_consumed = false;
  bool terminal_commit = false;
};

/// One spanning process (gsn) across all shards.
struct SpanInstance {
  ProcessId global_pid;
  int slices = 0;            // slices present in some history
  int terminals = 0;         // slice terminals consumed so far
  int committed_slices = 0;
  int tails = 0;             // ◁-tail slices present in some history
  int committed_tails = 0;
  bool terminal_emitted = false;
  std::vector<std::pair<int, int64_t>> members;  // (shard, local pid)
};

}  // namespace

Result<ProcessSchedule> MergeGlobalProjection(
    const std::vector<const ProcessSchedule*>& shard_histories,
    const std::map<std::string, SpanSubProjection>& spans) {
  ProcessSchedule global;

  // --- Index every local process; assign global pids (shards ascending,
  // local pids ascending — deterministic).
  std::map<std::pair<int, int64_t>, LocalProcess> locals;
  std::map<int64_t, SpanInstance> span_instances;  // by gsn
  // sub-definition name -> (shard, pid), to evaluate forward_preds.
  std::map<std::string, std::pair<int, int64_t>> slice_of_name;
  int64_t next_pid = 1;
  for (size_t shard = 0; shard < shard_histories.size(); ++shard) {
    const ProcessSchedule& history = *shard_histories[shard];
    for (const auto& [pid, def] : history.processes()) {
      LocalProcess local;
      auto span = spans.find(def->name());
      if (span != spans.end()) {
        local.span = &span->second;
        SpanInstance& instance = span_instances[span->second.gsn];
        if (instance.slices == 0) {
          instance.global_pid = ProcessId(next_pid++);
          TPM_RETURN_IF_ERROR(
              global.AddProcess(instance.global_pid, span->second.original));
        }
        ++instance.slices;
        if (span->second.tail) ++instance.tails;
        instance.members.emplace_back(static_cast<int>(shard), pid.value());
        local.global_pid = instance.global_pid;
        slice_of_name[def->name()] = {static_cast<int>(shard), pid.value()};
      } else {
        local.global_pid = ProcessId(next_pid++);
        TPM_RETURN_IF_ERROR(global.AddProcess(local.global_pid, def));
      }
      local.vote_position = history.VotePosition(pid);
      locals[{static_cast<int>(shard), pid.value()}] = local;
    }
    for (const ScheduleEvent& event : history.events()) {
      if (event.type == EventType::kActivity && !event.act.inverse) {
        ++locals[{static_cast<int>(shard), event.act.process.value()}]
              .forward_total;
      } else if (event.type == EventType::kCommit) {
        locals[{static_cast<int>(shard), event.process.value()}].committed =
            true;
      }
    }
  }

  // A slice's events are enabled once every skeleton predecessor present
  // in some history has all its forward events merged, and so has every
  // event its shard recorded before the predecessor's vote: the slice was
  // submitted only after that vote, so those events really preceded all
  // of its own. (Forward events alone are not enough: a predecessor votes
  // only once its conflicting predecessors terminated, and merging the
  // slice's pivot ahead of their pivots would fabricate a Proc-REC
  // violation the execution never had.)
  std::vector<size_t> cursor(shard_histories.size(), 0);
  auto slice_enabled = [&](const LocalProcess& local) {
    // Aborted slices are effect-free (their forward work is compensated)
    // and induce no conflicts, so they need no cross-shard ordering; after
    // a crash their terminals can also arrive in per-shard orders no
    // global decision sequence explains — gating them would wedge.
    if (local.span == nullptr || !local.committed) return true;
    for (const std::string& pred : local.span->forward_preds) {
      auto found = slice_of_name.find(pred);
      if (found == slice_of_name.end()) continue;  // never submitted
      const LocalProcess& p = locals.at(found->second);
      if (p.forward_consumed < p.forward_total) return false;
      if (cursor[static_cast<size_t>(found->second.first)] <
          p.vote_position) {
        return false;
      }
    }
    return true;
  };
  // A committed span's global terminal can only be emitted once every
  // slice's forward events are in the merged history (activities must
  // precede their process's commit).
  auto span_forward_done = [&](int64_t gsn) {
    for (const auto& member : span_instances.at(gsn).members) {
      const LocalProcess& m = locals.at(member);
      if (m.forward_consumed < m.forward_total) return false;
    }
    return true;
  };
  auto event_enabled = [&](int shard, const ScheduleEvent& event) {
    switch (event.type) {
      case EventType::kActivity:
        return slice_enabled(locals.at({shard, event.act.process.value()}));
      case EventType::kCommit:
      case EventType::kAbort: {
        const LocalProcess& local = locals.at({shard, event.process.value()});
        if (!slice_enabled(local)) return false;
        // A slice COMMIT stalls until the whole span's forward work is
        // merged: consuming it emits the global terminal (see below), and
        // every sibling's forward events must precede that terminal.
        if (event.type == EventType::kCommit && local.span != nullptr) {
          return span_forward_done(local.span->gsn);
        }
        return true;
      }
      case EventType::kGroupAbort:
        for (ProcessId pid : event.group) {
          if (!slice_enabled(locals.at({shard, pid.value()}))) return false;
        }
        return true;
    }
    return true;
  };

  // Consume a slice terminal. The global COMMIT is emitted at the FIRST
  // slice commit consumed (its gate above guarantees all span forward
  // events are already merged); aborts emit at the last slice terminal.
  // Emitting at the first commit keeps every merge wait pointed at
  // strictly-earlier wall-clock events — all of a span's forward events
  // precede its 2PC decision, which precedes every slice's commit record
  // — so the greedy merge below always makes progress. (Emitting at the
  // LAST terminal instead can wait on an event a shard appended *after*
  // events already stalled behind this one, deadlocking the merge against
  // the forward-predecessor gate.) Events a shard ordered after a slice
  // commit still land after the global terminal: it is out no later than
  // the first slice-commit consumption.
  auto consume_span_terminal = [&](LocalProcess& local,
                                   bool committed) -> Status {
    local.terminal_consumed = true;
    local.terminal_commit = committed;
    SpanInstance& instance = span_instances.at(local.span->gsn);
    ++instance.terminals;
    if (committed) ++instance.committed_slices;
    if (committed && local.span->tail) ++instance.committed_tails;
    if (instance.terminals == instance.slices) {
      // Failed ◁ alternatives abort inside a committed span: of the
      // tails, exactly one commits if the trunk did, none otherwise.
      const int trunk = instance.slices - instance.tails;
      const int committed_trunk =
          instance.committed_slices - instance.committed_tails;
      const bool span_committed = committed_trunk != 0;
      if ((span_committed && committed_trunk != trunk) ||
          instance.committed_tails !=
              (span_committed && instance.tails != 0 ? 1 : 0)) {
        return Status::Internal(StrCat(
            "spanning process g", local.span->gsn, " is half-committed: ",
            committed_trunk, " of ", trunk, " trunk slices and ",
            instance.committed_tails, " of ", instance.tails,
            " ◁ tails committed — cross-shard atomicity violated"));
      }
    }
    if (instance.terminal_emitted) return Status::OK();
    if (committed) {
      instance.terminal_emitted = true;
      return global.Append(ScheduleEvent::Commit(instance.global_pid),
                           /*enforce_legal=*/false);
    }
    if (instance.terminals < instance.slices) return Status::OK();
    instance.terminal_emitted = true;
    return global.Append(ScheduleEvent::Abort(instance.global_pid),
                         /*enforce_legal=*/false);
  };

  for (;;) {
    bool all_done = true;
    bool advanced = false;
    for (size_t shard = 0; shard < shard_histories.size(); ++shard) {
      const auto& events = shard_histories[shard]->events();
      if (cursor[shard] >= events.size()) continue;
      all_done = false;
      const ScheduleEvent& event = events[cursor[shard]];
      if (!event_enabled(static_cast<int>(shard), event)) continue;
      ++cursor[shard];
      advanced = true;
      switch (event.type) {
        case EventType::kActivity: {
          LocalProcess& local =
              locals.at({static_cast<int>(shard), event.act.process.value()});
          if (!event.act.inverse) ++local.forward_consumed;
          ScheduleEvent mapped = event;
          mapped.act.process = local.global_pid;
          mapped.process = local.global_pid;
          if (local.span != nullptr) {
            auto original = local.span->to_original.find(event.act.activity);
            if (original == local.span->to_original.end()) {
              return Status::Internal(
                  StrCat("spanning slice activity a", event.act.activity,
                         " has no original mapping (gsn ", local.span->gsn,
                         ")"));
            }
            mapped.act.activity = original->second;
          }
          TPM_RETURN_IF_ERROR(global.Append(mapped, /*enforce_legal=*/false));
          break;
        }
        case EventType::kCommit:
        case EventType::kAbort: {
          LocalProcess& local =
              locals.at({static_cast<int>(shard), event.process.value()});
          if (local.span != nullptr) {
            TPM_RETURN_IF_ERROR(consume_span_terminal(
                local, event.type == EventType::kCommit));
            break;
          }
          ScheduleEvent mapped = event;
          mapped.process = local.global_pid;
          TPM_RETURN_IF_ERROR(global.Append(mapped, /*enforce_legal=*/false));
          break;
        }
        case EventType::kGroupAbort: {
          // Spanning slices leave the group marker (their terminal is the
          // global one); the rest of the group is remapped verbatim.
          std::vector<ProcessId> remapped;
          for (ProcessId pid : event.group) {
            LocalProcess& local =
                locals.at({static_cast<int>(shard), pid.value()});
            if (local.span != nullptr) {
              TPM_RETURN_IF_ERROR(
                  consume_span_terminal(local, /*committed=*/false));
            } else {
              remapped.push_back(local.global_pid);
            }
          }
          if (!remapped.empty()) {
            TPM_RETURN_IF_ERROR(
                global.Append(ScheduleEvent::GroupAbort(std::move(remapped)),
                              /*enforce_legal=*/false));
          }
          break;
        }
      }
      break;  // restart at shard 0: lowest enabled shard goes first
    }
    if (all_done) break;
    if (!advanced) {
      std::vector<std::string> stuck;
      for (size_t shard = 0; shard < shard_histories.size(); ++shard) {
        if (cursor[shard] < shard_histories[shard]->events().size()) {
          stuck.push_back(StrCat(
              "shard ", shard, " at ",
              shard_histories[shard]->events()[cursor[shard]].ToString()));
        }
      }
      if (std::getenv("TPM_MERGE_WEDGE_DUMP") != nullptr) {
        for (size_t shard = 0; shard < shard_histories.size(); ++shard) {
          fprintf(stderr, "=== shard %zu (cursor %zu) ===\n", shard,
                  cursor[shard]);
          const auto& events = shard_histories[shard]->events();
          for (size_t i = 0; i < events.size(); ++i) {
            fprintf(stderr, "  [%zu]%s %s\n", i, i == cursor[shard] ? "*" : " ",
                    events[i].ToString().c_str());
          }
          for (const auto& [pid, def] : shard_histories[shard]->processes()) {
            const LocalProcess& lp =
                locals.at({static_cast<int>(shard), pid.value()});
            fprintf(stderr,
                    "  pid %lld def %s span=%d gsn=%lld committed=%d "
                    "fwd %lld/%lld preds=[%s]\n",
                    static_cast<long long>(pid.value()), def->name().c_str(),
                    lp.span != nullptr ? 1 : 0,
                    static_cast<long long>(lp.span != nullptr ? lp.span->gsn
                                                              : -1),
                    lp.committed ? 1 : 0,
                    static_cast<long long>(lp.forward_consumed),
                    static_cast<long long>(lp.forward_total),
                    lp.span != nullptr
                        ? StrJoin(lp.span->forward_preds, ",").c_str()
                        : "");
          }
        }
      }
      return Status::Internal(
          StrCat("global projection merge wedged — a slice emitted events "
                 "before its skeleton predecessors finished (cross-shard "
                 "order violation): ",
                 StrJoin(stuck, "; ")));
    }
  }
  return global;
}

Status VerifyGlobalProjection(
    const std::vector<const ProcessSchedule*>& shard_histories,
    const std::map<std::string, SpanSubProjection>& spans,
    const ConflictSpec& spec) {
  TPM_ASSIGN_OR_RETURN(ProcessSchedule global,
                       MergeGlobalProjection(shard_histories, spans));
  TPM_ASSIGN_OR_RETURN(bool pred, IsPRED(global, spec));
  if (!pred) {
    return Status::Internal("global recovered history is not PRED");
  }
  if (!AnalyzeCommittedRecoverability(global, spec).process_recoverable) {
    return Status::Internal(
        "global recovered committed projection is not Proc-REC");
  }
  return Status::OK();
}

}  // namespace tpm
