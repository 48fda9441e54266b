#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "config/ini.hpp"
#include "config/system_config.hpp"

namespace gts::config {
namespace {

// ---------------------------------------------------------------- INI -----

TEST(IniTest, ParsesSectionsAndKeys) {
  const auto ini = Ini::parse(
      "# comment\n"
      "top = level\n"
      "[system]\n"
      "simulation = True\n"
      "machines = 5\n"
      "; another comment\n"
      "[workload]\n"
      "arrival_rate_per_minute = 10.0\n"
      "name = spaced value here\n");
  ASSERT_TRUE(ini.has_value()) << ini.error().message;
  EXPECT_EQ(ini->get_or("", "top", ""), "level");
  EXPECT_TRUE(ini->get_bool("system", "simulation", false));
  EXPECT_EQ(ini->get_int("system", "machines", 0), 5);
  EXPECT_DOUBLE_EQ(ini->get_double("workload", "arrival_rate_per_minute", 0),
                   10.0);
  EXPECT_EQ(ini->get_or("workload", "name", ""), "spaced value here");
}

TEST(IniTest, BoolSpellings) {
  const auto ini = Ini::parse(
      "[b]\na = yes\nb = Off\nc = 1\nd = FALSE\ne = maybe\n");
  ASSERT_TRUE(ini.has_value());
  EXPECT_TRUE(ini->get_bool("b", "a", false));
  EXPECT_FALSE(ini->get_bool("b", "b", true));
  EXPECT_TRUE(ini->get_bool("b", "c", false));
  EXPECT_FALSE(ini->get_bool("b", "d", true));
  EXPECT_TRUE(ini->get_bool("b", "e", true));  // unparseable -> fallback
}

TEST(IniTest, MissingKeysFallBack) {
  const auto ini = Ini::parse("[s]\nk = v\n");
  ASSERT_TRUE(ini.has_value());
  EXPECT_FALSE(ini->has("s", "missing"));
  EXPECT_FALSE(ini->get("nope", "k").has_value());
  EXPECT_EQ(ini->get_int("s", "k", 7), 7);  // non-numeric -> fallback
}

TEST(IniTest, DuplicateKeysKeepLast) {
  const auto ini = Ini::parse("[s]\nk = 1\nk = 2\n");
  ASSERT_TRUE(ini.has_value());
  EXPECT_EQ(ini->get_int("s", "k", 0), 2);
}

TEST(IniTest, RejectsMalformedInput) {
  EXPECT_FALSE(Ini::parse("[unclosed\nk = v\n").has_value());
  EXPECT_FALSE(Ini::parse("[s]\nno equals sign\n").has_value());
  EXPECT_FALSE(Ini::parse("[s]\n= value\n").has_value());
}

TEST(IniTest, WriteRoundTrips) {
  Ini ini;
  ini.set("system", "machines", "5");
  ini.set("workload", "jobs", "100");
  const auto reparsed = Ini::parse(ini.write());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->get_int("system", "machines", 0), 5);
  EXPECT_EQ(reparsed->get_int("workload", "jobs", 0), 100);
}

TEST(IniTest, MissingFileFails) {
  EXPECT_FALSE(Ini::parse_file("/nonexistent/sys.ini").has_value());
}

// --------------------------------------------------------- SystemConfig ---

TEST(SystemConfigTest, RoundTrip) {
  SystemConfig config;
  config.simulation = false;
  config.machine_shape = "dgx1";
  config.machines = 3;
  config.generator.job_count = 250;
  config.generator.seed = 9;
  config.noise_sigma = 0.1;
  const auto parsed = SystemConfig::from_ini(config.to_ini());
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_FALSE(parsed->simulation);
  EXPECT_EQ(parsed->machine_shape, "dgx1");
  EXPECT_EQ(parsed->machines, 3);
  EXPECT_EQ(parsed->generator.job_count, 250);
  EXPECT_EQ(parsed->generator.seed, 9u);
  EXPECT_DOUBLE_EQ(parsed->noise_sigma, 0.1);
}

TEST(SystemConfigTest, ServiceSectionRoundTrips) {
  SystemConfig config;
  config.service.shard_count = 4;
  config.service.max_queue = 64;
  config.service.prom_port = 9100;
  const Ini ini = config.to_ini();
  const auto parsed = SystemConfig::from_ini(ini);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_EQ(parsed->service.shard_count, 4);
  EXPECT_EQ(parsed->service.max_queue, 64);
  EXPECT_EQ(parsed->service.prom_port, 9100);

  // Cells advance serially and requests are dispatched inline, so the
  // legacy shard_threads and batch_max keys load (and are ignored) but
  // are never written back.
  Ini legacy = ini;
  legacy.set("service", "shard_threads", "4");
  legacy.set("service", "batch_max", "8");
  const auto loaded = SystemConfig::from_ini(legacy);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().message;
  EXPECT_EQ(loaded->service.shard_count, 4);
  EXPECT_EQ(loaded->service.batch_max, 1);
  EXPECT_FALSE(loaded->to_ini().has("service", "shard_threads"));
  EXPECT_FALSE(loaded->to_ini().has("service", "batch_max"));
}

TEST(SystemConfigTest, RejectsBadValues) {
  Ini bad_machines;
  bad_machines.set("system", "machines", "0");
  EXPECT_FALSE(SystemConfig::from_ini(bad_machines).has_value());

  Ini bad_shape;
  bad_shape.set("system", "machine_shape", "tpu-pod");
  EXPECT_FALSE(SystemConfig::from_ini(bad_shape).has_value());
}

TEST(SystemConfigTest, BuildTopologyMatchesShape) {
  SystemConfig config;
  config.machine_shape = "dgx1";
  config.machines = 2;
  const auto topology = build_topology(config);
  ASSERT_TRUE(topology.has_value());
  EXPECT_EQ(topology->gpu_count(), 16);
  EXPECT_EQ(topology->machine_count(), 2);
}

TEST(AlgoConfigTest, PolicyNamesAndWeights) {
  Ini ini;
  ini.set("scheduler", "policy", "topo-aware");
  ini.set("utility", "alpha_cc", "0.5");
  ini.set("utility", "alpha_b", "0.3");
  ini.set("utility", "alpha_d", "0.2");
  const auto algo = AlgoConfig::from_ini("custom", ini);
  ASSERT_TRUE(algo.has_value());
  EXPECT_EQ(algo->policy, sched::Policy::kTopoAware);
  EXPECT_DOUBLE_EQ(algo->weights.alpha_cc, 0.5);

  Ini unknown;
  unknown.set("scheduler", "policy", "round-robin");
  EXPECT_FALSE(AlgoConfig::from_ini("x", unknown).has_value());

  Ini zero;
  zero.set("scheduler", "policy", "fcfs");
  zero.set("utility", "alpha_cc", "0");
  zero.set("utility", "alpha_b", "0");
  zero.set("utility", "alpha_d", "0");
  EXPECT_FALSE(AlgoConfig::from_ini("x", zero).has_value());
}

TEST(LoadConfigurationTest, EndToEndThroughDisk) {
  const std::string dir = "/tmp/gts_config_test";
  std::remove((dir + "/sys-config.ini").c_str());
  (void)std::system(("mkdir -p " + dir).c_str());
  const auto written = write_sample_configs(dir);
  ASSERT_TRUE(written.has_value()) << written.error().message;
  EXPECT_EQ(written->size(), 5u);  // sys + 4 algorithms

  const auto loaded = load_configuration(
      dir + "/sys-config.ini",
      {dir + "/topo-aware-p-config.ini", dir + "/bf-config.ini"});
  ASSERT_TRUE(loaded.has_value()) << loaded.error().message;
  EXPECT_EQ(loaded->system.machines, 5);
  ASSERT_EQ(loaded->algorithms.size(), 2u);
  EXPECT_EQ(loaded->algorithms[0].name, "topo-aware-p");
  EXPECT_EQ(loaded->algorithms[0].policy, sched::Policy::kTopoAwareP);
  EXPECT_EQ(loaded->algorithms[1].policy, sched::Policy::kBestFit);
}

TEST(LoadConfigurationTest, RequiresAtLeastOneAlgorithm) {
  const std::string dir = "/tmp/gts_config_test2";
  (void)std::system(("mkdir -p " + dir).c_str());
  const auto written = write_sample_configs(dir);
  ASSERT_TRUE(written.has_value());
  EXPECT_FALSE(load_configuration(dir + "/sys-config.ini", {}).has_value());
}

}  // namespace
}  // namespace gts::config
