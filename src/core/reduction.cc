#include "core/reduction.h"

#include <algorithm>
#include <deque>

#include "common/str_util.h"
#include "core/reduction_index.h"

namespace tpm {

namespace {

struct Token {
  ActivityInstance act;
  ServiceId service;  // base service (perfect commutativity)
};

bool TokensConflict(const Token& a, const Token& b, const ConflictSpec& spec) {
  if (a.act.process == b.act.process) return false;
  return spec.ServicesConflict(a.service, b.service);
}

// Extracts the residual token list: activity events minus aborted
// invocations and effect-free activities of non-committed processes
// (reduction rule 3).
std::vector<Token> ExtractTokens(const ProcessSchedule& completed,
                                 const ConflictSpec& spec,
                                 const std::set<ProcessId>& committed) {
  std::vector<Token> tokens;
  for (const ScheduleEvent& e : completed.events()) {
    if (e.type != EventType::kActivity) continue;
    const bool process_committed = committed.count(e.act.process) > 0;
    if (e.aborted_invocation) {
      // Aborted local transactions are effect-free. For non-committed
      // processes rule 3 removes them; for committed processes they remain
      // but never conflict (see header) — dropping them from the conflict
      // analysis is equivalent.
      continue;
    }
    ServiceId service = completed.ServiceOf(e.act);
    if (!process_committed && spec.IsEffectFreeService(service)) {
      continue;  // rule 3
    }
    tokens.push_back(Token{e.act, service});
  }
  return tokens;
}

}  // namespace

ReductionOutcome ReduceCompletedSchedule(
    const ProcessSchedule& completed, const ConflictSpec& spec,
    const std::set<ProcessId>& committed_in_original) {
  ReductionOutcome outcome;
  ReductionIndex index(spec, /*track_graph=*/false);
  std::vector<ProcessId> ids;
  for (const auto& [pid, def] : completed.processes()) {
    index.AddProcess(pid);
    ids.push_back(pid);
  }
  for (const ScheduleEvent& e : completed.events()) {
    // Aborted invocations are effect-free and never conflict (see header).
    if (e.type != EventType::kActivity || e.aborted_invocation) continue;
    const ServiceId service = completed.ServiceOf(e.act);
    const bool present = committed_in_original.count(e.act.process) > 0 ||
                         !spec.IsEffectFreeService(service);  // rule 3
    index.Append(e.act, service, present);
  }
  outcome.residual = index.Residual();

  // The residual can be commuted into a serial schedule iff the
  // process-level conflict graph over the residual is acyclic.
  Dag graph = index.BuildGraph();
  if (graph.HasCycle()) {
    outcome.reducible = false;
    for (int node : graph.FindCycle()) outcome.cycle.push_back(ids[node]);
  } else {
    outcome.reducible = true;
    auto order = graph.TopologicalOrder();
    for (int node : *order) outcome.serialization_order.push_back(ids[node]);
  }
  return outcome;
}

namespace {

// --- Exhaustive oracle -----------------------------------------------------

// Compact token encoding for memoization.
uint64_t EncodeToken(const Token& t) {
  return (static_cast<uint64_t>(t.act.process.value()) << 40) |
         (static_cast<uint64_t>(t.act.activity.value()) << 8) |
         (t.act.inverse ? 1u : 0u);
}

bool IsSerialSequence(const std::vector<size_t>& seq,
                      const std::vector<Token>& tokens) {
  // Serial: each process's tokens form one contiguous block.
  std::set<int64_t> closed;
  int64_t current = -1;
  for (size_t idx : seq) {
    int64_t pid = tokens[idx].act.process.value();
    if (pid == current) continue;
    if (closed.count(pid) > 0) return false;
    if (current >= 0) closed.insert(current);
    current = pid;
  }
  return true;
}

}  // namespace

Result<bool> IsReducibleExhaustive(
    const ProcessSchedule& completed, const ConflictSpec& spec,
    const std::set<ProcessId>& committed_in_original, size_t max_tokens,
    size_t max_states) {
  std::vector<Token> tokens =
      ExtractTokens(completed, spec, committed_in_original);
  if (tokens.size() > max_tokens) {
    return Status::InvalidArgument(
        StrCat("schedule too large for exhaustive reduction: ",
               tokens.size(), " tokens"));
  }

  // States are sequences of indices into `tokens`; moves are the three
  // reduction rules.
  std::vector<size_t> initial(tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) initial[i] = i;

  auto key_of = [&](const std::vector<size_t>& seq) {
    std::vector<uint64_t> key;
    key.reserve(seq.size());
    for (size_t idx : seq) key.push_back(EncodeToken(tokens[idx]));
    return key;
  };

  std::set<std::vector<uint64_t>> visited;
  std::deque<std::vector<size_t>> frontier;
  visited.insert(key_of(initial));
  frontier.push_back(std::move(initial));

  while (!frontier.empty()) {
    if (visited.size() > max_states) {
      return Status::InvalidArgument("exhaustive reduction state cap hit");
    }
    std::vector<size_t> seq = std::move(frontier.front());
    frontier.pop_front();
    if (IsSerialSequence(seq, tokens)) return true;

    // Rule 1: swap adjacent commuting tokens.
    for (size_t i = 0; i + 1 < seq.size(); ++i) {
      const Token& a = tokens[seq[i]];
      const Token& b = tokens[seq[i + 1]];
      bool commute;
      if (a.act.process == b.act.process) {
        // Same-process tokens: the commutativity rule still applies when
        // their services commute.
        commute = !spec.ServicesConflict(a.service, b.service);
      } else {
        commute = !TokensConflict(a, b, spec);
      }
      if (commute) {
        std::vector<size_t> next = seq;
        std::swap(next[i], next[i + 1]);
        auto key = key_of(next);
        if (visited.insert(key).second) frontier.push_back(std::move(next));
      }
    }
    // Rule 2: remove adjacent compensation pairs.
    for (size_t i = 0; i + 1 < seq.size(); ++i) {
      const Token& a = tokens[seq[i]];
      const Token& b = tokens[seq[i + 1]];
      if (a.act.process == b.act.process &&
          a.act.activity == b.act.activity && !a.act.inverse &&
          b.act.inverse) {
        std::vector<size_t> next;
        for (size_t k = 0; k < seq.size(); ++k) {
          if (k != i && k != i + 1) next.push_back(seq[k]);
        }
        auto key = key_of(next);
        if (visited.insert(key).second) frontier.push_back(std::move(next));
      }
    }
  }
  return false;
}

Result<bool> IsRED(const ProcessSchedule& schedule, const ConflictSpec& spec) {
  TPM_ASSIGN_OR_RETURN(ReductionOutcome outcome,
                       AnalyzeRED(schedule, spec));
  return outcome.reducible;
}

Result<ReductionOutcome> AnalyzeRED(const ProcessSchedule& schedule,
                                    const ConflictSpec& spec) {
  TPM_ASSIGN_OR_RETURN(ProcessSchedule completed, CompleteSchedule(schedule));
  std::set<ProcessId> committed;
  for (const auto& [pid, def] : schedule.processes()) {
    if (schedule.IsProcessCommitted(pid)) committed.insert(pid);
  }
  return ReduceCompletedSchedule(completed, spec, committed);
}

}  // namespace tpm
