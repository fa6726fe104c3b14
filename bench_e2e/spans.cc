#include "spans.h"

#include <algorithm>
#include <set>
#include <utility>

namespace edr::bench_e2e {

int SpanLog::Add(const std::string& name, double start, double end,
                 int parent, uint64_t op, bool attributed) {
  spans_.push_back({name, start, end, parent, op, attributed});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> SpanLog::SelfSeconds(
    const std::string& root) const {
  // Children of each span, and the root each span hangs under. Parents
  // always precede their children, so one forward pass resolves roots.
  std::vector<std::vector<int>> children(spans_.size());
  std::vector<int> root_of(spans_.size(), -1);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    if (p < 0) {
      root_of[i] = static_cast<int>(i);
    } else {
      children[p].push_back(static_cast<int>(i));
      root_of[i] = root_of[p];
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (root_of[i] < 0 || spans_[root_of[i]].name != root) continue;
    std::vector<std::pair<double, double>> cover;
    for (const int c : children[i]) {
      cover.emplace_back(spans_[c].start, spans_[c].end);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = spans_[i].start;
    for (const auto& [s, e] : cover) {
      const double from = std::max(s, reach);
      if (e > from) {
        covered += e - from;
        reach = e;
      }
    }
    self[spans_[i].name] += (spans_[i].end - spans_[i].start) - covered;
  }
  return self;
}

std::string SpanLog::Check() const {
  std::set<uint64_t> root_ops;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string where = "span " + std::to_string(i) + " (" + s.name + ")";
    if (!(s.end >= s.start)) return where + ": ends before it starts";
    if (s.parent < 0) {
      if (!root_ops.insert(s.op).second) {
        return where + ": op id " + std::to_string(s.op) +
               " used by two roots";
      }
      continue;
    }
    if (static_cast<size_t>(s.parent) >= i) {
      return where + ": parent is not an earlier span (orphan)";
    }
    const Span& p = spans_[s.parent];
    if (s.start < p.start || s.end > p.end) {
      return where + ": lies outside its parent " + p.name;
    }
    if (s.op != p.op) return where + ": op id differs from its parent's";
  }
  return "";
}

void SpanLog::WriteJson(std::FILE* out) const {
  std::fprintf(out, "[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                 "\"parent\":%d,\"op\":%llu,\"attributed\":%s}",
                 i == 0 ? "" : ",", s.name.c_str(), s.start, s.end, s.parent,
                 static_cast<unsigned long long>(s.op),
                 s.attributed ? "true" : "false");
  }
  std::fprintf(out, "\n]\n");
}

}  // namespace edr::bench_e2e
