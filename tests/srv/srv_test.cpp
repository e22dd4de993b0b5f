// src/srv: schedule determinism, --jobs byte-identity, and the figure's
// headline shape (semantic TM sustains more offered load than the coarse
// lock before its latency knee).
#include "srv/workload.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/driver.h"

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(SrvSchedule, DeterministicAndFlavorIndependent) {
  srv::SrvConfig cfg;
  cfg.requests = 400;
  cfg.load = 0.6;
  const auto a = srv::make_schedule(cfg, 7, 0);
  const auto b = srv::make_schedule(cfg, 7, 0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].key2, b[i].key2);
    EXPECT_EQ(a[i].delta, b[i].delta);
  }
  // Arrivals are non-decreasing and requests are well-formed.
  std::uint64_t prev = 0;
  for (const auto& r : a) {
    EXPECT_GE(r.arrival, prev);
    prev = r.arrival;
    EXPECT_GE(r.kind, 0);
    EXPECT_LE(r.kind, 2);
    if (r.kind == 2) {
      EXPECT_NE(r.key, r.key2);
    }
  }
  // A different salt (trial) or worker count perturbs the schedule.
  const auto salted = srv::make_schedule(cfg, 7, 1);
  const auto wider = srv::make_schedule(cfg, 31, 0);
  EXPECT_NE(salted[0].arrival, a[0].arrival);
  EXPECT_NE(wider[0].arrival, a[0].arrival);
}

TEST(SrvWorkload, AllFlavorsPassTheConsistencyAudit) {
  // run_server throws on any conservation failure — exact-once completion,
  // hits+misses == lookups, revenue reconciliation, drained queue.
  for (srv::Flavor f :
       {srv::Flavor::kLock, srv::Flavor::kFlatTm, srv::Flavor::kSemanticTm,
        srv::Flavor::kChoppedTm}) {
    srv::SrvConfig cfg;
    cfg.requests = 300;
    cfg.load = 0.9;
    srv::SrvReport rep;
    ASSERT_NO_THROW(srv::run_server(f, cfg, 8, 0, rep)) << srv::flavor_name(f);
    EXPECT_EQ(rep.completed, 300u) << srv::flavor_name(f);
    EXPECT_EQ(rep.sojourn.count(), 300u) << srv::flavor_name(f);
    EXPECT_GT(rep.last_commit, 0u) << srv::flavor_name(f);
    if (f == srv::Flavor::kChoppedTm) {
      // Every handled request commits at least a take piece and a handle
      // piece; empty polls add more take pieces.
      EXPECT_GE(rep.chop_pieces, 2 * rep.completed) << srv::flavor_name(f);
    } else {
      EXPECT_EQ(rep.chop_pieces, 0u) << srv::flavor_name(f);
    }
  }
}

TEST(SrvFigure, SerialAndParallelSweepsAreByteIdentical) {
  // A reduced fig5 sweep — every flavor at one load — run twice: serial and
  // with 8 host threads.  Results (extras included) and CSV bytes must
  // match exactly; this is the property CI relies on to diff-check the
  // committed fig5_srv.csv regardless of --jobs.
  std::vector<harness::Series> series;
  for (srv::Flavor f :
       {srv::Flavor::kLock, srv::Flavor::kFlatTm, srv::Flavor::kSemanticTm})
    series.push_back(srv::series(f, 0.6, 200));

  harness::DriverOptions serial;
  serial.jobs = 1;
  serial.csv_path = "srv_determinism_serial.csv";
  harness::DriverOptions parallel;
  parallel.jobs = 8;
  parallel.csv_path = "srv_determinism_parallel.csv";

  const auto r1 = harness::run_figure_driver("srv determinism (serial)", series,
                                             {8}, "", serial);
  const auto r8 = harness::run_figure_driver("srv determinism (parallel)",
                                             series, {8}, "", parallel);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r8.ok());
  ASSERT_EQ(r1.results.size(), 3u);
  EXPECT_EQ(r1.results, r8.results);  // RunResult::operator== covers extras

  const std::string csv1 = slurp(serial.csv_path);
  const std::string csv8 = slurp(parallel.csv_path);
  ASSERT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, csv8);
  // The extras columns made it into the header.
  EXPECT_NE(csv1.find("load,offered_per_mcyc,tput_per_mcyc,p50,p99,p999"),
            std::string::npos);
  std::remove(serial.csv_path.c_str());
  std::remove(parallel.csv_path.c_str());
}

TEST(SrvFigure, SemanticSustainsMoreLoadThanLockBeforeTheKnee) {
  // The acceptance shape on an 8-CPU server: at an offered load the lock
  // loop cannot sustain (rho = 0.9), semantic TM still completes requests
  // about as fast as they arrive, with far lower sojourn time.
  srv::SrvConfig cfg;
  cfg.requests = 600;
  cfg.load = 0.9;
  srv::SrvReport lock, sem;
  srv::run_server(srv::Flavor::kLock, cfg, 8, 0, lock);
  srv::run_server(srv::Flavor::kSemanticTm, cfg, 8, 0, sem);

  // Same arrival schedule, so equal spans mean equal throughput; the lock
  // run must take at least 2x longer to drain the same 600 requests...
  EXPECT_GT(lock.last_commit, 2 * sem.last_commit);
  // ...and its median sojourn shows the saturated queue (an order of
  // magnitude is the acceptance bar; in practice it is >50x).
  EXPECT_GT(lock.sojourn.quantile(0.5), 10 * sem.sojourn.quantile(0.5));

  // Below the lock's knee (rho = 0.15) both keep up: medians within the
  // same decade, so the semantic win above is queueing, not service cost.
  srv::SrvConfig light = cfg;
  light.load = 0.15;
  srv::SrvReport lock_lo, sem_lo;
  srv::run_server(srv::Flavor::kLock, light, 8, 0, lock_lo);
  srv::run_server(srv::Flavor::kSemanticTm, light, 8, 0, sem_lo);
  EXPECT_LT(lock_lo.sojourn.quantile(0.5), 10 * sem_lo.sojourn.quantile(0.5));
}

}  // namespace
