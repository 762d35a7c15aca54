#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.hpp"

namespace perfbench {

std::size_t Trace::open(const char* name) {
  Span s;
  s.name = name;
  s.start = Clock::now();
  s.parent = open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
  s.op = op_;
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Trace::close(std::size_t id) {
  // Spans left open above `id` (a call that threw) end with it.
  const Clock::time_point now = Clock::now();
  while (!open_.empty()) {
    const std::size_t top = open_.back();
    open_.pop_back();
    spans_[top].end = now;
    if (top == id) break;
  }
}

void Trace::add(const char* name, Clock::time_point start, Clock::time_point end,
                std::size_t parent) {
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = static_cast<std::int32_t>(parent);
  s.op = op_;
  spans_.push_back(s);
}

std::map<std::string, Trace::Totals> Trace::totals(bool setup) const {
  std::vector<double> child_seconds(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child_seconds[s.parent] += seconds_between(s.start, s.end);
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if ((s.op == kSetupOp) != setup) continue;
    Totals& t = out[s.name];
    const double d = seconds_between(s.start, s.end);
    t.seconds += d;
    t.self_seconds += d - child_seconds[i];
    ++t.count;
  }
  return out;
}

bool Trace::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const Clock::time_point epoch = spans_.empty() ? Clock::now() : spans_.front().start;
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch).count();
  };
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d,\"op\":%lld}}%s\n",
                  s.name, us(s.start), us(s.end) - us(s.start), i, s.parent,
                  s.op == kSetupOp ? -1LL : static_cast<long long>(s.op),
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return bool(out);
}

std::size_t current_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (!f) return 0;
  unsigned long pages = 0, resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &pages, &resident);
  std::fclose(f);
  return n == 2 ? resident * 4096ul : 0;
}

std::size_t peak_rss_bytes() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024u;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

}  // namespace perfbench
