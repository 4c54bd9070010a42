#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

namespace tpmbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      std::min(values.size() - 1,
               static_cast<size_t>(std::max(1.0, rank)) - 1);
  return values[index];
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void Report::Meta(const std::string& key, const std::string& value) {
  meta_.emplace_back(key, value);
}

void Report::Meta(const std::string& key, double value) {
  meta_.emplace_back(key, JsonNumber(value));
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  end_to_end_.push_back({name, value, unit});
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  layer_.push_back({name, value, unit});
}

void Report::Gate(bool ok, const std::string& what) {
  ++gates_;
  if (!ok) failures_.push_back(what);
}

double Report::EndToEndValue(const std::string& name) const {
  for (const Metric& m : end_to_end_) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

void Report::MergeFrom(const Report& other) {
  gates_ += other.gates_;
  failures_.insert(failures_.end(), other.failures_.begin(),
                   other.failures_.end());
  attempted += other.attempted;
  failed += other.failed;
}

void Report::Print(bool traced) const {
  for (const auto& [key, value] : meta_) {
    std::cout << "meta " << key << " = " << value << "\n";
  }
  std::cout << "gates " << (gates_ - static_cast<int>(failures_.size()))
            << "/" << gates_ << " passed\n";
  for (const std::string& failure : failures_) {
    std::cout << "GATE FAILED: " << failure << "\n";
  }
  for (const Metric& m : end_to_end_) {
    std::cout << "end_to_end " << m.name << " = " << JsonNumber(m.value)
              << " " << m.unit << "\n";
  }
  for (const Metric& m : layer_) {
    std::cout << "per_layer " << m.name << " = " << JsonNumber(m.value) << " "
              << m.unit << "\n";
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  const std::vector<Metric>& chosen = traced ? layer_ : end_to_end_;
  for (size_t i = 0; i < chosen.size(); ++i) {
    if (i > 0) json << ", ";
    json << JsonString(chosen[i].name) << ": {\"value\": "
         << JsonNumber(chosen[i].value)
         << ", \"unit\": " << JsonString(chosen[i].unit) << "}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

int64_t Tracer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                    int64_t parent, int64_t request) {
  if (!enabled_) return 0;
  const int64_t id = static_cast<int64_t>(spans_.size()) + 1;
  spans_.push_back({name, start_ns, end_ns, id, parent, request});
  return id;
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  return out;
}

double Tracer::TotalSeconds(const std::string& name) const {
  double total = 0;
  for (const Span& span : spans_) {
    if (name == span.name) {
      total += static_cast<double>(span.end_ns - span.start_ns) / 1e9;
    }
  }
  return total;
}

bool Tracer::Write(const std::string& path, const std::string& trace_id) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "# trace_id=" << trace_id << "\n";
  out << "id,parent,request,name,start_ns,end_ns\n";
  for (const Span& span : spans_) {
    out << span.id << "," << span.parent << "," << span.request << ","
        << span.name << "," << span.start_ns << "," << span.end_ns << "\n";
  }
  return static_cast<bool>(out);
}

ProcessRecorder::ProcessRecorder(int shards, size_t expected_per_shard,
                                 bool trace)
    : trace_(trace), entries_(shards) {
  // Sized (and so touched) up front: growing a table inside a callback
  // would page-fault under the runtime's relay mutex.
  for (auto& row : entries_) row.resize(expected_per_shard);
}

ProcessRecorder::Entry& ProcessRecorder::Slot(int shard, tpm::ProcessId pid) {
  std::vector<Entry>& row = entries_[shard];
  const size_t slot = static_cast<size_t>(pid.value() - 1);
  if (slot >= row.size()) row.resize(slot + 1);
  return row[slot];
}

void ProcessRecorder::OnActivityCommitted(int shard, tpm::ProcessId pid,
                                          tpm::ActivityId /*act*/,
                                          bool inverse) {
  if (!trace_ || inverse) return;
  Entry& entry = Slot(shard, pid);
  const int64_t now = NowNs();
  if (entry.first_commit_ns < 0) entry.first_commit_ns = now;
  entry.last_commit_ns = now;
}

void ProcessRecorder::OnInvocationFailed(int /*shard*/, tpm::ProcessId /*pid*/,
                                         tpm::ActivityId /*act*/) {
  failed_invocations_.fetch_add(1, std::memory_order_relaxed);
}

void ProcessRecorder::OnProcessTerminated(int shard, tpm::ProcessId pid,
                                          tpm::ProcessOutcome outcome) {
  Entry& entry = Slot(shard, pid);
  entry.terminated_ns = NowNs();
  entry.outcome = outcome;
  Heartbeat();
  {
    std::lock_guard<std::mutex> lock(wait_mu_);
    terminated_.fetch_add(1);
  }
  wait_cv_.notify_one();
}

const ProcessRecorder::Entry* ProcessRecorder::Find(int shard,
                                                    tpm::ProcessId pid) const {
  if (shard < 0 || shard >= static_cast<int>(entries_.size())) return nullptr;
  const std::vector<Entry>& row = entries_[shard];
  const size_t slot = static_cast<size_t>(pid.value() - 1);
  if (slot >= row.size() || row[slot].terminated_ns < 0) return nullptr;
  return &row[slot];
}

double ProcessRecorder::TableBytes() const {
  double bytes = 0;
  for (const auto& row : entries_) {
    bytes += static_cast<double>(row.capacity() * sizeof(Entry));
  }
  return bytes;
}

void ProcessRecorder::WaitForTerminations(int64_t count) {
  std::unique_lock<std::mutex> lock(wait_mu_);
  wait_cv_.wait(lock, [&] { return terminated_.load() >= count; });
}

namespace {
std::atomic<int64_t> g_heartbeat_ns{0};
}  // namespace

void Heartbeat() { g_heartbeat_ns.store(NowNs(), std::memory_order_relaxed); }

StallWatchdog::StallWatchdog(std::chrono::seconds quiet_limit,
                             std::chrono::seconds budget)
    : quiet_limit_ns_(quiet_limit.count() * 1'000'000'000),
      deadline_ns_(NowNs() + budget.count() * 1'000'000'000) {
  Heartbeat();
  thread_ = std::thread([this] { Watch(); });
}

StallWatchdog::~StallWatchdog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void StallWatchdog::Watch() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!cv_.wait_for(lock, std::chrono::seconds(1), [&] { return done_; })) {
    const int64_t now = NowNs();
    const bool quiet = now - g_heartbeat_ns.load() > quiet_limit_ns_;
    if (!quiet && now < deadline_ns_) continue;
    // The runtime is wedged or has slowed to a crawl (Submit, Drain and
    // Stop may block for good): report an incorrect run and end the
    // process without unwinding it.
    std::cout << "GATE FAILED: "
              << (quiet ? "no process terminated and no phase ended for "
                              "the stall limit"
                        : "the run passed its time budget")
              << "\n"
              << "{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
                 "\"metrics\": {}}"
              << std::endl;
    std::_Exit(0);
  }
}

}  // namespace tpmbench
