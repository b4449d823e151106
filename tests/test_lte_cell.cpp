// The proportional-fair cell as one UE sees it: the single-session
// `explicit_users` channel and the admission controller's private model are
// both a SharedCell with (at most) one registered UE. Bitwise goldens pin the
// share and capacity sequences; the behaviour tests cover the on/off
// background process; the property tests check the PF-share invariants over
// random weights, demand and background.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "poi360/common/rng.h"
#include "poi360/common/stats.h"
#include "poi360/lte/channel.h"
#include "poi360/lte/shared_cell.h"

namespace poi360::lte {
namespace {

/// FNV-1a (64-bit) over the little-endian bytes of each double's bit
/// pattern, so a golden compares sequences bit for bit (no ulp slack).
class BitHash {
 public:
  void add(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (bits >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct Golden {
  std::uint64_t seed;
  int users;
  double weight;
  SimDuration mean_on;
  SimDuration mean_off;
  std::uint64_t share_hash;     // share at t = 0, 1, ..., 5000 ms
  std::uint64_t capacity_hash;  // UplinkChannel::advance at the same times
};

// Captured from the two-model code (`lte::MultiUserCell::foreground_share`,
// and UplinkChannel built on it) before the cell models were merged; every
// single-session `explicit_users` run and every soak admission decision
// depends on these sequences staying bit-identical.
constexpr Golden kGoldens[] = {
    {1, 0, 1.0, msec(1500), sec(6), 0x72422a95637e5538ULL,
     0x404af37a504c7bcfULL},
    {77, 6, 1.0, msec(1500), sec(6), 0xe53a44eb5b6e4887ULL,
     0xeef99c517b9d62a6ULL},
    {5, 24, 1.0, msec(1500), sec(6), 0xa025af6345ef141fULL,
     0x5630af5acf4a1723ULL},
    {11, 6, 0.25, msec(1500), sec(6), 0x97d17b138ba4b954ULL,
     0x97f90845318dda7fULL},
    {23, 3, 1.0, msec(200), msec(800), 0x716a2b381c5d1ff8ULL,
     0x1d7cd65c8e67fdd7ULL},
};

OnOffBackground background_of(const Golden& g) {
  OnOffBackground bg;
  bg.background_users = g.users;
  bg.background_weight = g.weight;
  bg.mean_on = g.mean_on;
  bg.mean_off = g.mean_off;
  return bg;
}

/// One registered unit-weight UE reading its share and trimming behind
/// itself, the way UplinkChannel drives its cell.
class OneUeCell {
 public:
  OneUeCell(OnOffBackground bg, std::uint64_t seed)
      : cell_(SharedCell::Config{bg}, seed), ue_(cell_.register_ue()) {}

  double share(SimTime now) {
    const double s = cell_.share(ue_, now);
    cell_.trim(now);
    return s;
  }
  const SharedCell& cell() const { return cell_; }

 private:
  SharedCell cell_;
  int ue_;
};

// ---------------------------------------------------------------- goldens --

TEST(SingleUeCell, ShareMatchesGoldensBitwise) {
  for (const Golden& g : kGoldens) {
    // The channel's path: one UE, nothing committed.
    OneUeCell channel_path(background_of(g), g.seed);
    // The fleet's degenerate case: one UE that committed its own backlog.
    SharedCell committed(SharedCell::Config{background_of(g)}, g.seed);
    const int ue = committed.register_ue(1.0);
    committed.report_demand(ue, 1);
    committed.commit_demand();
    // The admission controller's private model: no UE, prospective share.
    SharedCell admission_path(SharedCell::Config{background_of(g)}, g.seed);

    BitHash a, b, c;
    for (SimTime t = 0; t <= sec(5); t += msec(1)) {
      a.add(channel_path.share(t));
      b.add(committed.share(ue, t));
      c.add(admission_path.prospective_share(t));
      admission_path.trim(t);
    }
    EXPECT_EQ(a.value(), g.share_hash) << "seed " << g.seed;
    EXPECT_EQ(b.value(), g.share_hash) << "seed " << g.seed;
    EXPECT_EQ(c.value(), g.share_hash) << "seed " << g.seed;
  }
}

TEST(SingleUeCell, ExplicitUsersCapacityMatchesGoldensBitwise) {
  for (const Golden& g : kGoldens) {
    ChannelConfig config;
    config.explicit_users = g.users;
    config.multi_user = background_of(g);
    config.fading_std = 0.0;
    config.outage_per_min = 0.0;
    config.mean_cell_load = 0.0;
    config.load_std = 0.0;
    UplinkChannel ch(config, g.seed);
    BitHash h;
    for (SimTime t = 0; t <= sec(5); t += msec(1)) h.add(ch.advance(t));
    EXPECT_EQ(h.value(), g.capacity_hash) << "seed " << g.seed;
  }
}

// -------------------------------------------------------------- behaviour --

TEST(SingleUeCell, NoCompetitorsMeansFullShare) {
  OneUeCell cell({.background_users = 0}, 1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(cell.share(msec(i)), 1.0);
  }
}

TEST(SingleUeCell, ShareBoundedByUserCount) {
  OnOffBackground bg;
  bg.background_users = 5;
  OneUeCell cell(bg, 2);
  for (int i = 0; i < 60'000; ++i) {
    const double share = cell.share(msec(i));
    EXPECT_GT(share, 1.0 / 6.0 - 1e-12);
    EXPECT_LE(share, 1.0);
  }
}

TEST(SingleUeCell, DeterministicForSeed) {
  OnOffBackground bg;
  bg.background_users = 4;
  OneUeCell a(bg, 7), b(bg, 7);
  for (int i = 0; i < 30'000; ++i) {
    EXPECT_EQ(a.share(msec(i)), b.share(msec(i)));
  }
}

TEST(SingleUeCell, DutyCycleMatchesOnOffRatio) {
  OnOffBackground bg;
  bg.background_users = 1;
  bg.mean_on = sec(1);
  bg.mean_off = sec(3);
  OneUeCell cell(bg, 11);
  int active_samples = 0;
  constexpr int kSamples = 600'000;
  for (int i = 0; i < kSamples; ++i) {
    cell.share(msec(i));
    if (cell.cell().active_background() == 1) ++active_samples;
  }
  EXPECT_NEAR(static_cast<double>(active_samples) / kSamples, 0.25, 0.06);
}

TEST(SingleUeCell, MoreUsersMeanSmallerAverageShare) {
  auto mean_share = [](int users) {
    OnOffBackground bg;
    bg.background_users = users;
    OneUeCell cell(bg, 5);
    RunningStats s;
    for (int i = 0; i < 120'000; ++i) s.add(cell.share(msec(i)));
    return s.mean();
  };
  EXPECT_GT(mean_share(1), mean_share(4));
  EXPECT_GT(mean_share(4), mean_share(16));
}

TEST(SingleUeCell, BackgroundWeightScalesImpact) {
  auto mean_share = [](double weight) {
    OnOffBackground bg;
    bg.background_users = 6;
    bg.background_weight = weight;
    OneUeCell cell(bg, 5);
    RunningStats s;
    for (int i = 0; i < 60'000; ++i) s.add(cell.share(msec(i)));
    return s.mean();
  };
  EXPECT_GT(mean_share(0.5), mean_share(2.0));
}

TEST(Channel, ExplicitUsersReplaceLoadProcess) {
  ChannelConfig config;
  config.explicit_users = 4;
  config.fading_std = 0.0;
  config.outage_per_min = 0.0;
  UplinkChannel ch(config, 9);
  ASSERT_TRUE(ch.cell().has_value());
  EXPECT_EQ(ch.cell()->registered_ues(), 1);
  EXPECT_EQ(ch.cell()->config().background.background_users, 4);
  // Capacity must track base * share exactly (no fading, no outage).
  const Bitrate base = capacity_for_rss(config.rss_dbm);
  for (int i = 1; i <= 30'000; ++i) {
    const Bitrate cap = ch.advance(msec(i));
    EXPECT_LE(cap, base + 1.0);
    EXPECT_GE(cap, base / 5.0 - 1.0);
  }
}

TEST(Channel, AbstractModelHasNoCell) {
  ChannelConfig config;  // explicit_users = -1
  UplinkChannel ch(config, 9);
  EXPECT_FALSE(ch.cell().has_value());
}

// ------------------------------------------------------------- properties --

// Random weights, demand, background and commit quanta. At every queried ms
// each UE's share lies in (0, 1], and the shares of the UEs the committed
// snapshot counts as backlogged sum to at most 1: together with the
// background they split one cell. The 1e-12 slack absorbs the rounding of
// `w + (W - w)` against `W` in each denominator.
TEST(SharedCellProperty, SharesInUnitIntervalAndBackloggedSumAtMostOne) {
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    OnOffBackground bg;
    bg.background_users = static_cast<int>(rng.uniform_int(0, 16));
    bg.background_weight = rng.uniform(0.05, 3.0);
    bg.mean_on = msec(rng.uniform_int(20, 3000));
    bg.mean_off = msec(rng.uniform_int(20, 8000));
    SharedCell cell(SharedCell::Config{bg}, rng.engine()());

    const int n = static_cast<int>(rng.uniform_int(1, 8));
    std::vector<int> ues;
    for (int k = 0; k < n; ++k) {
      ues.push_back(cell.register_ue(rng.uniform(0.1, 4.0)));
    }
    const SimDuration quantum = msec(rng.uniform_int(1, 50));
    std::vector<bool> backlogged(static_cast<std::size_t>(n), false);
    for (SimTime quantum_start = 0; quantum_start < sec(10);
         quantum_start += quantum) {
      // Commit at the boundary, then query every ms of the quantum once per
      // UE (in UE order, so later UEs ask behind the frontier).
      for (int k = 0; k < n; ++k) {
        const bool busy = rng.bernoulli(0.6);
        backlogged[static_cast<std::size_t>(k)] = busy;
        cell.report_demand(ues[static_cast<std::size_t>(k)],
                           busy ? rng.uniform_int(1, 200'000) : 0);
      }
      cell.commit_demand();
      for (int k = 0; k < n; ++k) {
        for (SimTime t = quantum_start; t < quantum_start + quantum;
             t += msec(1)) {
          const double s = cell.share(ues[static_cast<std::size_t>(k)], t);
          ASSERT_GT(s, 0.0) << "trial " << trial << " t " << t;
          ASSERT_LE(s, 1.0) << "trial " << trial << " t " << t;
        }
      }
      for (SimTime t = quantum_start; t < quantum_start + quantum;
           t += msec(1)) {
        double sum = 0.0;
        for (int k = 0; k < n; ++k) {
          if (backlogged[static_cast<std::size_t>(k)]) {
            sum += cell.share(ues[static_cast<std::size_t>(k)], t);
          }
        }
        ASSERT_LE(sum, 1.0 + 1e-12) << "trial " << trial << " t " << t;
        const double prospective = cell.prospective_share(t);
        ASSERT_GT(prospective, 0.0);
        ASSERT_LE(prospective, 1.0);
      }
      cell.trim(quantum_start + quantum);
    }
  }
}

// Two hours of monotone 1 ms queries through an owner that trims (the
// explicit_users channel) hold the background timeline at one segment, while
// the same background queried untrimmed once a second grows without bound.
TEST(SharedCellProperty, TrimmingOwnerKeepsTimelineBounded) {
  ChannelConfig config;
  config.explicit_users = 24;
  config.multi_user.mean_on = msec(300);
  config.multi_user.mean_off = msec(900);
  config.fading_std = 0.0;
  config.outage_per_min = 0.0;
  UplinkChannel ch(config, 3);
  std::size_t max_segments = 0;
  for (SimTime t = 0; t <= sec(2 * 3600); t += msec(1)) {
    ch.advance(t);
    max_segments = std::max(max_segments, ch.cell()->timeline_segments());
  }
  EXPECT_LE(max_segments, 2u);

  SharedCell untrimmed(SharedCell::Config{config.multi_user}, 3);
  for (SimTime t = 0; t <= sec(2 * 3600); t += sec(1)) {
    untrimmed.prospective_share(t);
  }
  EXPECT_GT(untrimmed.timeline_segments(), 1000u);
}

}  // namespace
}  // namespace poi360::lte
