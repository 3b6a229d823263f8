/**
 * @file
 * The benchmark's own spans around each call into the program.
 *
 * Spans are kept in memory while the traced round runs and written out
 * at the end as Chrome trace-event JSON (loadable in Perfetto). A span's
 * self time is its duration minus the part its child spans cover.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder
{
  public:
    using Clock = std::chrono::steady_clock;

    struct Span
    {
        std::string name;
        Clock::time_point start;
        Clock::time_point end;
        /** Index of the enclosing span, or -1 for a root. */
        int parent = -1;
    };

    /** Open a span nested in the innermost open one; returns its index. */
    int begin(const std::string &name);
    /** Close span @p index (must be the innermost open span). */
    void end(int index);

    const std::vector<Span> &spans() const { return spans_; }

    /** Self seconds summed per span name. */
    std::map<std::string, double> selfSeconds() const;

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span; a null recorder records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const std::string &name)
        : rec_(rec), index_(rec ? rec->begin(name) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (rec_)
            rec_->end(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *rec_;
    int index_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
