#include "spans.hh"

#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

double
seconds(SpanRecorder::Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

} // namespace

int
SpanRecorder::begin(const std::string &name)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start = Clock::now();
    s.end = s.start;
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void
SpanRecorder::end(int index)
{
    spans_[static_cast<std::size_t>(index)].end = Clock::now();
    if (!open_.empty() && open_.back() == index)
        open_.pop_back();
}

std::map<std::string, double>
SpanRecorder::selfSeconds() const
{
    std::map<std::string, double> self;
    for (const auto &s : spans_)
        self[s.name] += seconds(s.end - s.start);
    for (const auto &s : spans_) {
        if (s.parent >= 0) {
            self[spans_[static_cast<std::size_t>(s.parent)].name] -=
                seconds(s.end - s.start);
        }
    }
    return self;
}

bool
SpanRecorder::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    Clock::time_point origin =
        spans_.empty() ? Clock::time_point{} : spans_.front().start;
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char line[512];
        std::snprintf(line, sizeof line,
                      "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                      s.name.c_str(), seconds(s.start - origin) * 1e6,
                      seconds(s.end - s.start) * 1e6, i, s.parent,
                      i + 1 < spans_.size() ? "," : "");
        out << line;
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
