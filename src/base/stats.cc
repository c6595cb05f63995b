#include "base/stats.hh"

#include <cmath>
#include <iomanip>
#include <ostream>

#include "base/logging.hh"

namespace fenceless::statistics
{

namespace
{

/** Print a double without trailing-zero noise for integral values. */
void
printNumber(std::ostream &os, double v)
{
    if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
        os << static_cast<std::int64_t>(v);
    } else {
        os << std::fixed << std::setprecision(4) << v
           << std::defaultfloat;
    }
}

} // namespace

namespace
{

// 8 sub-buckets per power of two above the exact range [0, 8).
constexpr unsigned sub_bits = 3;
constexpr unsigned sub_buckets = 1u << sub_bits;

} // namespace

std::size_t
PercentileSketch::bucketOf(double v)
{
    if (!(v > 0.0))
        return 0; // negatives, zero and NaN all land in bucket 0
    // Clamp instead of overflowing: anything at or beyond 2^63 shares
    // the top bucket, which only flattens the extreme tail.
    const double ceiling = 9.2e18;
    const auto u = static_cast<std::uint64_t>(v < ceiling ? v : ceiling);
    if (u < sub_buckets)
        return static_cast<std::size_t>(u);
    const unsigned order = 63u - static_cast<unsigned>(
        __builtin_clzll(u));
    const auto sub = static_cast<std::size_t>(
        (u >> (order - sub_bits)) & (sub_buckets - 1));
    return static_cast<std::size_t>(order - sub_bits + 1) * sub_buckets
           + sub;
}

double
PercentileSketch::bucketValue(std::size_t idx)
{
    if (idx < sub_buckets)
        return static_cast<double>(idx);
    const unsigned order =
        static_cast<unsigned>(idx / sub_buckets) + sub_bits - 1;
    const auto sub = static_cast<std::uint64_t>(idx % sub_buckets);
    const std::uint64_t lo = (sub_buckets + sub) << (order - sub_bits);
    const std::uint64_t width = 1ull << (order - sub_bits);
    // Midpoint of the bucket's value range: halves the worst-case
    // error versus reporting the lower edge.
    return static_cast<double>(lo)
           + static_cast<double>(width - 1) / 2.0;
}

void
PercentileSketch::add(double v, std::uint64_t times)
{
    if (times == 0)
        return;
    const std::size_t idx = bucketOf(v);
    if (idx >= counts_.size())
        counts_.resize(idx + 1, 0);
    counts_[idx] += times;
    total_ += times;
}

double
PercentileSketch::quantile(double q) const
{
    if (total_ == 0)
        return 0.0;
    // Nearest-rank: the k-th smallest sample with k = ceil(q * n),
    // clamped into [1, n].
    double rank_d = std::ceil(q * static_cast<double>(total_));
    if (rank_d < 1.0)
        rank_d = 1.0;
    auto rank = static_cast<std::uint64_t>(rank_d);
    if (rank > total_)
        rank = total_;
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        cumulative += counts_[i];
        if (cumulative >= rank)
            return bucketValue(i);
    }
    return bucketValue(counts_.empty() ? 0 : counts_.size() - 1);
}

void
PercentileSketch::reset()
{
    counts_.clear();
    total_ = 0;
}

void
Stat::print(std::ostream &os, int name_width) const
{
    os << std::left << std::setw(name_width) << name_ << " ";
    printNumber(os, value());
    os << "  # " << desc_ << "\n";
}

void
Stat::printCsv(std::ostream &os) const
{
    os << name_ << "," << value() << "\n";
}

void
Distribution::sample(double v, std::uint64_t times)
{
    if (times == 0)
        return;
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
    }
    count_ += times;
    sum_ += v * times;
    // Weighted Welford update: numerically stable where the naive
    // sqsum/n - mean^2 form loses all significant digits.
    const double delta = v - mean_;
    mean_ += delta * static_cast<double>(times)
             / static_cast<double>(count_);
    m2_ += static_cast<double>(times) * delta * (v - mean_);
    sketch_.add(v, times);
}

double
Distribution::stdev() const
{
    if (count_ < 2)
        return 0.0;
    const double var = m2_ / static_cast<double>(count_);
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

void
Distribution::print(std::ostream &os, int name_width) const
{
    os << std::left << std::setw(name_width) << name() << " ";
    os << "mean=";
    printNumber(os, mean());
    os << " min=";
    printNumber(os, minValue());
    os << " max=";
    printNumber(os, maxValue());
    os << " stdev=";
    printNumber(os, stdev());
    os << " n=" << count_;
    os << "  # " << desc() << "\n";
}

void
Distribution::printCsv(std::ostream &os) const
{
    os << name() << ".mean," << mean() << "\n";
    os << name() << ".min," << minValue() << "\n";
    os << name() << ".max," << maxValue() << "\n";
    os << name() << ".stdev," << stdev() << "\n";
    os << name() << ".n," << count_ << "\n";
}

void
Distribution::reset()
{
    count_ = 0;
    sum_ = 0.0;
    mean_ = 0.0;
    m2_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
    sketch_.reset();
}

Histogram::Histogram(std::string name, std::string desc, double lo,
                     double hi, unsigned num_buckets)
    : Stat(std::move(name), std::move(desc)), lo_(lo), hi_(hi),
      buckets_(num_buckets, 0)
{
    flAssert(hi > lo && num_buckets > 0,
             "Histogram requires hi > lo and at least one bucket");
    bucket_width_ = (hi - lo) / num_buckets;
}

void
Histogram::sample(double v, std::uint64_t times)
{
    samples_ += times;
    if (v < lo_) {
        underflow_ += times;
    } else if (v >= hi_) {
        overflow_ += times;
    } else {
        auto idx = static_cast<std::size_t>((v - lo_) / bucket_width_);
        if (idx >= buckets_.size())
            idx = buckets_.size() - 1; // floating-point edge
        buckets_[idx] += times;
    }
}

void
Histogram::print(std::ostream &os, int name_width) const
{
    os << std::left << std::setw(name_width) << name() << " n=" << samples_
       << "  # " << desc() << "\n";
    if (underflow_)
        os << "    (<" << lo_ << ") " << underflow_ << "\n";
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (!buckets_[i])
            continue;
        os << "    [";
        printNumber(os, lo_ + i * bucket_width_);
        os << ",";
        printNumber(os, lo_ + (i + 1) * bucket_width_);
        os << ") " << buckets_[i] << "\n";
    }
    if (overflow_)
        os << "    (>=" << hi_ << ") " << overflow_ << "\n";
}

void
Histogram::printCsv(std::ostream &os) const
{
    os << name() << ".n," << samples_ << "\n";
    os << name() << ".underflow," << underflow_ << "\n";
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        os << name() << ".bucket" << i << "," << buckets_[i] << "\n";
    }
    os << name() << ".overflow," << overflow_ << "\n";
}

void
Histogram::reset()
{
    samples_ = 0;
    underflow_ = 0;
    overflow_ = 0;
    for (auto &b : buckets_)
        b = 0;
}

std::string
StatGroup::qualify(const std::string &name) const
{
    return name_.empty() ? name : name_ + "." + name;
}

Scalar &
StatGroup::addScalar(const std::string &name, const std::string &desc)
{
    auto stat = std::make_unique<Scalar>(qualify(name), desc);
    auto &ref = *stat;
    stats_.push_back(std::move(stat));
    return ref;
}

Distribution &
StatGroup::addDistribution(const std::string &name, const std::string &desc)
{
    auto stat = std::make_unique<Distribution>(qualify(name), desc);
    auto &ref = *stat;
    stats_.push_back(std::move(stat));
    return ref;
}

Histogram &
StatGroup::addHistogram(const std::string &name, const std::string &desc,
                        double lo, double hi, unsigned num_buckets)
{
    auto stat = std::make_unique<Histogram>(qualify(name), desc, lo, hi,
                                            num_buckets);
    auto &ref = *stat;
    stats_.push_back(std::move(stat));
    return ref;
}

Formula &
StatGroup::addFormula(const std::string &name, const std::string &desc,
                      std::function<double()> fn)
{
    auto stat = std::make_unique<Formula>(qualify(name), desc,
                                          std::move(fn));
    auto &ref = *stat;
    stats_.push_back(std::move(stat));
    return ref;
}

const Stat *
StatGroup::find(const std::string &short_name) const
{
    const std::string full = qualify(short_name);
    for (const auto &s : stats_) {
        if (s->name() == full)
            return s.get();
    }
    return nullptr;
}

std::uint64_t
StatGroup::scalarCount(const std::string &short_name) const
{
    const auto *s = dynamic_cast<const Scalar *>(find(short_name));
    return s ? s->count() : 0;
}

const Distribution *
StatGroup::findDistribution(const std::string &short_name) const
{
    return dynamic_cast<const Distribution *>(find(short_name));
}

void
StatGroup::print(std::ostream &os) const
{
    std::size_t width = 0;
    for (const auto &s : stats_)
        width = std::max(width, s->name().size());
    for (const auto &s : stats_)
        s->print(os, static_cast<int>(width) + 2);
}

void
StatGroup::printCsv(std::ostream &os) const
{
    for (const auto &s : stats_)
        s->printCsv(os);
}

void
StatGroup::reset()
{
    for (auto &s : stats_)
        s->reset();
}

StatGroup &
StatRegistry::createGroup(const std::string &name)
{
    flAssert(!findGroup(name), "duplicate stat group '", name, "'");
    groups_.push_back(std::make_unique<StatGroup>(name));
    return *groups_.back();
}

StatGroup *
StatRegistry::findGroup(const std::string &name)
{
    for (auto &g : groups_) {
        if (g->name() == name)
            return g.get();
    }
    return nullptr;
}

const StatGroup *
StatRegistry::findGroup(const std::string &name) const
{
    for (const auto &g : groups_) {
        if (g->name() == name)
            return g.get();
    }
    return nullptr;
}

void
StatRegistry::print(std::ostream &os) const
{
    for (const auto &g : groups_) {
        g->print(os);
    }
}

void
StatRegistry::printCsv(std::ostream &os) const
{
    for (const auto &g : groups_)
        g->printCsv(os);
}

void
StatRegistry::reset()
{
    for (auto &g : groups_)
        g->reset();
}

} // namespace fenceless::statistics
