"""The gremlins entropy-seed derivation: every campaign configuration
gets its own deterministic, non-zero guest entropy stream."""

from repro.workloads import derive_entropy_seed


class TestGremlinSeedDerivation:
    def test_distinct_configs_get_distinct_entropy_streams(self):
        from repro.apps import standard_apps

        apps = standard_apps()
        subset = apps[:2]
        base = derive_entropy_seed(5, apps, 300)
        assert derive_entropy_seed(5, apps, 300) == base  # deterministic
        assert derive_entropy_seed(6, apps, 300) != base      # seed
        assert derive_entropy_seed(5, subset, 300) != base    # app mix
        assert derive_entropy_seed(5, apps, 400) != base      # events
        # App order within a mix is irrelevant (sorted names).
        assert derive_entropy_seed(5, list(reversed(apps)), 300) == base

    def test_seed_is_nonzero_u32(self):
        from repro.apps import standard_apps

        for seed in range(20):
            value = derive_entropy_seed(seed, standard_apps(), 100)
            assert 0 < value < (1 << 32)
