#include <cstdio>

#include "esdbench/src/bench.h"

namespace esdbench {

int Tracer::Begin(const std::string& name, uint64_t req) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.req = req;
  span.pass = pass_;
  span.start = SecondsSince(origin_);
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int index) {
  if (index < 0) {
    return;
  }
  spans_[index].end = SecondsSince(origin_);
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

void Tracer::AddTimed(const std::string& name, uint64_t req, int parent,
                      double seconds) {
  if (parent < 0) {
    return;
  }
  Span span;
  span.name = name;
  span.parent = parent;
  span.req = req;
  span.pass = pass_;
  span.end = spans_[parent].end;
  span.start = span.end - seconds;
  spans_.push_back(std::move(span));
}

void Tracer::Count(int index, const std::string& name, double value) {
  if (index >= 0) {
    spans_[index].counts.emplace_back(name, value);
  }
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"req\":%llu,"
                 "\"pass\":%llu,\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"counts\":{",
                 i, s.name.c_str(), s.parent,
                 static_cast<unsigned long long>(s.req),
                 static_cast<unsigned long long>(s.pass), s.start * 1e6,
                 s.end * 1e6);
    for (size_t c = 0; c < s.counts.size(); ++c) {
      std::fprintf(f, "%s\"%s\":%.17g", c == 0 ? "" : ",",
                   s.counts[c].first.c_str(), s.counts[c].second);
    }
    std::fprintf(f, "}}\n");
  }
  return std::fclose(f) == 0;
}

void Workload::Check(bool ok, const std::string& what) {
  if (ok) {
    return;
  }
  for (const std::string& e : errors_) {
    if (e == what) {
      return;
    }
  }
  if (errors_.size() < 20) {
    errors_.push_back(what);
  }
}

}  // namespace esdbench
