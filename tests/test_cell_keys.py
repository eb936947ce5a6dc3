"""Cell identity: ids, derived seeds and cache keys equal their reference derivation.

``make_cell`` builds each descriptor from a per-variant frame, and
``resolve_engine("auto")`` memoizes its pick per registry generation.  Every test here compares against the
plain derivation (``json.dumps`` of the whole descriptor, a fresh registry
scan), so a cache written by any version that derives keys that way keeps
replaying.
"""

import dataclasses
import hashlib
import json
import pickle
import random

import pytest

from repro.api.config import RunConfig
from repro.lab.cache import CODE_SALT
from repro.lab.campaign import (
    Campaign,
    make_cell,
    registered_fingerprint,
    resolve_spec,
    spec_factory_names,
)
from repro.sim.registry import (
    engine_names,
    get_engine,
    register_engine,
    registered_engines,
    unregister_engine,
)


def _json(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_engine(selector, x, config):
    """``"auto"`` resolution by a fresh scan of the registry, no memo."""
    if selector != "auto":
        return selector
    calibrated = [info for info in registered_engines() if info.trial_step_cost is not None]
    candidates = []
    if config.allow_approximate:
        candidates = [
            info
            for info in calibrated
            if info.approximate and (info.min_recommended_population or 0) <= sum(x)
        ]
    if not candidates:
        candidates = [info for info in calibrated if info.supports_fair and not info.approximate]
    if not candidates:
        return "python"
    return min(candidates, key=lambda info: info.cost(config.trials)).name


def reference_cell(spec_name, strategy, x, selector, variant, master_seed):
    """``(cell_id, seed, config cache key, cache_key)`` derived the plain way."""
    fingerprint = registered_fingerprint(spec_name)
    engine = reference_engine(selector, x, variant)
    fields = variant.to_dict()
    del fields["seed"], fields["engine"]
    descriptor = _json(
        {
            "spec_fp": fingerprint,
            "strategy": strategy,
            "input": list(x),
            "engine": engine,
            "config": fields,
        }
    )
    if master_seed is not None:
        digest = hashlib.sha256(f"{master_seed}|{descriptor}".encode("utf-8")).digest()
        seed = int.from_bytes(digest[:8], "big")
    else:
        seed = variant.seed
    cell_id = _sha(f"{descriptor}|seed={seed}")[:16]
    config_key = _sha(_json(variant.replace(engine=engine, seed=seed).to_dict()))
    cache_key = _sha(
        _json(
            {
                "spec_fp": fingerprint,
                "strategy": strategy,
                "input": [int(v) for v in x],
                "engine": engine,
                "config": config_key,
                "salt": CODE_SALT,
            }
        )
    )
    return cell_id, seed, config_key, cache_key


def random_variant(rng):
    return RunConfig(
        trials=rng.choice((1, 4, 32, 200, 400)),
        max_steps=rng.choice((1, 5_000, 1_000_000)),
        quiescence_window=rng.choice((None, 1, 37)),
        seed=rng.choice((None, 0, rng.getrandbits(64))),
        engine=rng.choice(("python", "vectorized")),
        epsilon=rng.choice((0.03, 0.5, rng.uniform(1e-6, 0.999))),
        allow_approximate=rng.random() < 0.5,
    )


#: Strategy names, including one that needs JSON escapes.
STRATEGIES = ("auto", "general", 'quoted "input":[] \\ é\t')


class TestKeyIdentity:
    def test_make_cell_matches_the_reference_derivation(self):
        rng = random.Random(2707)
        specs = spec_factory_names()
        selectors = ("auto",) + engine_names()
        for index in range(400):
            name = rng.choice(specs)
            top = rng.choice((30, 40_000))  # both sides of the approximate floor
            x = tuple(rng.randrange(top) for _ in range(resolve_spec(name).dimension))
            strategy = rng.choice(STRATEGIES)
            selector = rng.choice(selectors)
            variant = random_variant(rng)
            master_seed = rng.choice((None, 7, rng.getrandbits(40)))
            cell = make_cell(
                index, name, strategy, registered_fingerprint(name), x,
                selector, variant, master_seed,
            )
            derived = (cell.cell_id, cell.config.seed, cell.config.cache_key(), cell.cache_key())
            assert derived == reference_cell(
                name, strategy, x, selector, variant, master_seed
            ), (name, strategy, x, selector, variant, master_seed)

    @pytest.mark.parametrize("master_seed", [None, 11])
    def test_expansion_through_shared_frames_matches_the_reference(self, master_seed):
        rng = random.Random(master_seed)
        variants = tuple(random_variant(rng) for _ in range(4)) + (RunConfig(),)
        campaign = Campaign(
            name="keys",
            specs=[("minimum", "auto"), ("add", STRATEGIES[2]), "fig7"],
            inputs=[(0, 0), (3, 5), (9000, 2000), (20_000, 1)],
            engines=("auto", "python", "tau-vec"),
            configs=variants,
            seed=master_seed,
        )
        cells = campaign.expand()
        seen = set()
        for spec, strategy in campaign.specs:
            for x in campaign.inputs:
                for selector in campaign.engines:
                    for variant in variants:
                        seen.add(reference_cell(spec, strategy, x, selector, variant, master_seed))
        derived = {(c.cell_id, c.config.seed, c.config.cache_key(), c.cache_key()) for c in cells}
        assert derived == seen

    def test_reregistering_an_engine_flips_the_next_auto_pick(self):
        campaign = Campaign(
            name="keys-auto", specs=["minimum"], inputs=[(2, 3)], configs=(RunConfig(trials=4),)
        )
        python = get_engine("python").implementation
        register_engine("keys-test-engine", trial_step_cost=1e-15)(python)
        try:
            [cheap] = campaign.expand()
            register_engine("keys-test-engine", trial_step_cost=1.0, replace=True)(python)
            [dear] = campaign.expand()
        finally:
            unregister_engine("keys-test-engine")
        [after] = campaign.expand()
        assert (cheap.engine, dear.engine, after.engine) == (
            "keys-test-engine", "python", "python"
        )
        assert cheap.cell_id != dear.cell_id == after.cell_id


class TestDerivedKeys:
    def test_a_replaced_config_derives_its_own_key(self):
        base = RunConfig(trials=3, seed=7)
        key = base.cache_key()
        changed = base.replace(seed=8)
        assert changed.cache_key() == RunConfig(trials=3, seed=8).cache_key() != key
        assert base.replace().cache_key() == key

    def test_a_pickled_cell_and_config_keep_equal_keys(self):
        (cell,) = Campaign(
            name="keys-pickle", specs=["minimum"], inputs=[(3, 4)], engines=["python"],
            configs=[RunConfig(trials=4)], seed=7,
        ).expand()
        key, config_key = cell.cache_key(), cell.config.cache_key()
        clone = pickle.loads(pickle.dumps(cell))
        assert clone == cell
        assert (clone.cache_key(), clone.config.cache_key()) == (key, config_key)
        config = pickle.loads(pickle.dumps(cell.config))
        assert config == cell.config and config.cache_key() == config_key

    def test_a_replaced_cell_derives_its_own_key(self):
        (cell,) = Campaign(
            name="keys-replace", specs=["minimum"], inputs=[(3, 4)], engines=["python"],
            configs=[RunConfig(trials=4)], seed=7,
        ).expand()
        key = cell.cache_key()
        moved = dataclasses.replace(cell, input=(4, 3))
        assert moved.cache_key() != key
