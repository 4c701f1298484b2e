// Tests for live epoch rotation (§5.2.1): double-buffered MRs, directory
// flips through the control plane, in-flight grace period, seal + archive.
#include "core/epoch_rotation.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>

#include "core/control.hpp"
#include "core/oracle.hpp"
#include "core/report_crafter.hpp"
#include "switchsim/dart_switch.hpp"

namespace dart::core {
namespace {

namespace fs = std::filesystem;

DartConfig config() {
  DartConfig cfg;
  cfg.n_slots = 1 << 10;
  cfg.n_addresses = 2;
  cfg.value_bytes = 8;
  cfg.master_seed = 0x207;
  return cfg;
}

CollectorEndpoint endpoint() {
  return {{2, 0, 0, 0, 0, 9}, net::Ipv4Addr::from_octets(10, 0, 100, 9)};
}

std::vector<std::byte> value_of(std::uint64_t v) {
  std::vector<std::byte> out(8);
  std::memcpy(out.data(), &v, 8);
  return out;
}

class RotationFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dart_rot_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  // Sends one report for (key, value) to the given directory row.
  void report(RotatingCollector& collector, const RemoteStoreInfo& dst,
              std::uint64_t key_id, std::uint64_t v, std::uint32_t n) {
    const ReportCrafter crafter(config());
    const auto tpl = crafter.make_write_template(dst, ReporterEndpoint{});
    std::vector<std::byte> frame(tpl.frame_size());
    ASSERT_EQ(crafter.craft_write_into(tpl, sim_key(key_id), value_of(v), n,
                                       psn_++, frame),
              frame.size());
    ASSERT_TRUE(collector.rnic().process_frame(frame).has_value());
  }

  fs::path dir_;
  std::uint32_t psn_ = 0;
};

TEST_F(RotationFixture, RegionsHaveDistinctRkeysAndVaddrs) {
  RotatingCollector collector(config(), 0, endpoint());
  const auto active = collector.active_info();
  const auto standby = collector.standby_info();
  EXPECT_NE(active.rkey, standby.rkey);
  EXPECT_NE(active.base_vaddr, standby.base_vaddr);
  EXPECT_EQ(active.qpn, standby.qpn);  // one QP serves both regions
}

TEST_F(RotationFixture, ReportsLandInActiveRegionOnly) {
  RotatingCollector collector(config(), 0, endpoint());
  for (std::uint32_t n = 0; n < 2; ++n) {
    report(collector, collector.active_info(), 1, 0x11, n);
  }
  EXPECT_EQ(collector.query(sim_key(1)).outcome, QueryOutcome::kFound);
  EXPECT_EQ(collector.query_standby(sim_key(1)).outcome, QueryOutcome::kEmpty);
}

TEST_F(RotationFixture, FlipSwapsRegions) {
  RotatingCollector collector(config(), 0, endpoint());
  const auto before = collector.active_info();
  collector.flip();
  EXPECT_EQ(collector.current_epoch(), 1u);
  EXPECT_EQ(collector.standby_info().rkey, before.rkey);
  EXPECT_NE(collector.active_info().rkey, before.rkey);
}

TEST_F(RotationFixture, GracePeriodAcceptsInFlightReportsToOldRkey) {
  RotatingCollector collector(config(), 0, endpoint());
  const auto old_row = collector.active_info();
  collector.flip();
  // A report crafted against the OLD directory row is still in flight: it
  // must land (the old MR stays registered until sealed).
  report(collector, old_row, 7, 0x77, 0);
  report(collector, old_row, 7, 0x77, 1);
  EXPECT_EQ(collector.query_standby(sim_key(7)).outcome, QueryOutcome::kFound);
  // And the active (new) region is untouched by it.
  EXPECT_EQ(collector.query(sim_key(7)).outcome, QueryOutcome::kEmpty);
}

TEST_F(RotationFixture, SealArchivesAndClearsPreviousRegion) {
  RotatingCollector collector(config(), 0, endpoint());
  for (std::uint64_t k = 0; k < 50; ++k) {
    for (std::uint32_t n = 0; n < 2; ++n) {
      report(collector, collector.active_info(), k, 1000 + k, n);
    }
  }
  collector.flip();
  const auto sealed = collector.seal_previous(path("e0.dart"));
  ASSERT_TRUE(sealed.ok());
  EXPECT_GT(sealed.value(), 80u);

  // The sealed region is empty again...
  EXPECT_EQ(collector.query_standby(sim_key(3)).outcome, QueryOutcome::kEmpty);
  // ...and history answers from the archive.
  auto reader = EpochArchiveReader::open(path("e0.dart"));
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value().epoch(), 0u);
  const auto hit = reader.value().query(sim_key(3));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, value_of(1003));
}

TEST_F(RotationFixture, MultiEpochLifecycleWithControllerAndSwitch) {
  // The full loop: controller publishes the active row; a switch reports;
  // flip → push update → switch drains onto the new region; seal old.
  RotatingCollector collector(config(), 0, endpoint());
  DeploymentController controller(config());
  controller.register_collector(collector.active_info());

  switchsim::DartSwitchPipeline::Config sc;
  sc.dart = config();
  sc.write_mode = WriteMode::kAllSlots;
  switchsim::DartSwitchPipeline sw(sc);
  ASSERT_TRUE(controller.attach_switch(sw).ok());

  auto report_via_switch = [&](std::uint64_t key_id, std::uint64_t v) {
    for (const auto& frame :
         sw.on_telemetry(sim_key(key_id), value_of(v))) {
      ASSERT_TRUE(collector.rnic().process_frame(frame).has_value());
    }
  };

  for (std::uint64_t epoch = 0; epoch < 3; ++epoch) {
    for (std::uint64_t k = 0; k < 30; ++k) {
      report_via_switch(k, epoch * 1000 + k);
    }
    collector.flip();
    controller.register_collector(collector.active_info());  // new rkey row
    EXPECT_EQ(controller.push_updates(), 1u);
    ASSERT_TRUE(collector
                    .seal_previous(path("e" + std::to_string(epoch) + ".dart"))
                    .ok());
  }

  // Each epoch's archive carries that epoch's generation of values.
  for (std::uint64_t epoch = 0; epoch < 3; ++epoch) {
    auto reader =
        EpochArchiveReader::open(path("e" + std::to_string(epoch) + ".dart"));
    ASSERT_TRUE(reader.ok());
    const auto hit = reader.value().query(sim_key(11));
    ASSERT_TRUE(hit.has_value()) << "epoch " << epoch;
    EXPECT_EQ(*hit, value_of(epoch * 1000 + 11));
  }
}

TEST_F(RotationFixture, WrongRkeyStillRejected) {
  RotatingCollector collector(config(), 0, endpoint());
  auto bogus = collector.active_info();
  bogus.rkey ^= 0xFFFF;
  const ReportCrafter crafter(config());
  const auto tpl = crafter.make_write_template(bogus, ReporterEndpoint{});
  std::vector<std::byte> frame(tpl.frame_size());
  ASSERT_EQ(crafter.craft_write_into(tpl, sim_key(1), value_of(1), 0, 0, frame),
            frame.size());
  EXPECT_FALSE(collector.rnic().process_frame(frame).has_value());
  EXPECT_EQ(collector.rnic().counters().bad_rkey, 1u);
}

}  // namespace
}  // namespace dart::core
