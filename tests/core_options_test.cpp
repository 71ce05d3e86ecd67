// brew_options / brew_configure: the unified configuration surface. This
// suite lives in its own test binary on purpose — brew_configure must run
// BEFORE anything constructs the process-wide SpecManager, and every other
// C API test binary constructs it on its first rewrite.
#include <gtest/gtest.h>
#include <signal.h>

#include "core/brew.h"

namespace {

__attribute__((noinline)) int addmul(int a, int b) { return a * 7 + b; }
typedef int (*addmul_t)(int, int);

TEST(CApiOptions, NullAndBogusValuesAreSafe) {
  EXPECT_EQ(brew_configure(nullptr), -1);
  brew_options_free(nullptr);  // no-op
  // Setters on NULL are no-ops, not crashes.
  brew_options_set_workers(nullptr, 4);
  brew_options_set_cache_bytes(nullptr, 1);
  brew_options_set_cache_shards(nullptr, 1);
  brew_options_set_max_variants(nullptr, 1);
  brew_options_set_dispatch_ways(nullptr, 1);
  brew_options_set_sample_calls(nullptr, 1);
  brew_options_set_decay_interval(nullptr, 1);
  brew_options_set_profile_hz(nullptr, 97);
}

// One ordered test so configuration provably precedes first use and the
// freeze provably follows it.
TEST(CApiOptions, ConfigureShapesTheProcessRuntimeThenFreezes) {
  brew_options* options = brew_options_init();
  ASSERT_NE(options, nullptr);
  brew_options_set_workers(options, 1);
  brew_options_set_cache_bytes(options, 8u << 20);
  brew_options_set_cache_shards(options, 1);  // single-lock control mode
  brew_options_set_max_variants(options, 3);
  brew_options_set_dispatch_ways(options, 2);
  brew_options_set_sample_calls(options, 4);
  brew_options_set_decay_interval(options, 16);
  brew_options_set_profile_hz(options, 97);  // a no-op: no sampler exists

  // Before first use: accepted, and a second call overwrites wholesale.
  EXPECT_EQ(brew_configure(options), 0);
  EXPECT_EQ(brew_configure(options), 0);
  brew_options_free(options);

  // First rewrite constructs the runtime from the staged options.
  brew_conf* conf = brew_initConf();
  brew_setnpar(conf, 2);
  brew_setpar(conf, 1, BREW_KNOWN);
  brew_setret(conf, BREW_RET_INT);
  brew_func* h = brew_rewrite2(conf, (void*)addmul, (uint64_t)3, (uint64_t)0);
  ASSERT_NE(h, nullptr) << brew_lastError(conf);
  EXPECT_EQ(((addmul_t)brew_func_entry(h))(0, 2), 3 * 7 + 2);
  brew_release_h(h);

  brew_cache_stats cache;
  brew_getcachestats(&cache);
  EXPECT_EQ(cache.shards, 1u);                  // configured, not env/default
  EXPECT_EQ(cache.capacity_bytes, 8u << 20);
  // The runtime arms no SIGPROF sampler, whatever the profile rate says.
  struct sigaction prof;
  ASSERT_EQ(sigaction(SIGPROF, nullptr, &prof), 0);
  EXPECT_EQ(prof.sa_handler, SIG_DFL);
  EXPECT_EQ(prof.sa_flags & SA_SIGINFO, 0);

  // The dispatcher inherits the configured variant budget (3) even when
  // more keys are hot.
  brew_conf* dconf = brew_initConf();
  brew_setnpar(dconf, 2);
  brew_setret(dconf, BREW_RET_INT);
  brew_dispatch* d = brew_dispatch_create(dconf, (void*)addmul, 1,
                                          (uint64_t)0, (uint64_t)0);
  ASSERT_NE(d, nullptr) << brew_lastError(dconf);
  addmul_t entry = (addmul_t)brew_dispatch_entry(d);
  for (int round = 0; round < 200; ++round)
    for (int key = 1; key <= 5; ++key)
      ASSERT_EQ(entry(key, round), addmul(key, round));
  EXPECT_LE(brew_dispatch_variant_count(d), 3u);

  // A key kept hot is live as a variant.
  for (int i = 0; i < 64; ++i) ASSERT_EQ(entry(2, i), addmul(2, i));
  brew_func_variant variant;
  ASSERT_GE(brew_func_variants((void*)addmul, &variant, 1), 1u);
  brew_dispatch_free(d);
  brew_freeConf(dconf);

  // After first use the configuration is frozen.
  brew_options* late = brew_options_init();
  EXPECT_EQ(brew_configure(late), -1);
  brew_options_free(late);
  brew_freeConf(conf);
}

}  // namespace
