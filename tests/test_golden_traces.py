"""Golden traces: pinned sha256 of the trace of fixed (scenario, seed) pairs.

The trace is the simulator's whole observable behaviour, so a change meant
only to make things faster or simpler must leave every hash here as it is.
The pairs are every shipped scenario at its own seed and at 4242, plus 40
generated scenarios over 300 ticks, half of which promote at least one team
and some of which prune one again. One wider sweep pins a single sha256
over 300 generated scenarios and every shipped scenario at three seeds, and
another over 40 scenarios of the shared-member-list family, in which one
SoC's sub-team and then its whole team are promoted and may be pruned. A
change that alters behaviour on purpose re-records the hashes and says why.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from fso_sim.engine import load_scenario_file, run_scenario, scenario_from_dict
from fso_sim.trace import write_trace

from generators import random_scenario, shared_member_list_scenario_dict

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GENERATED_HORIZON = 300

# (scenario file, seed) -> trace sha256
FIXTURES = {
    ("little_sister.json", 1): "99e1b40c89f5501ce5bd3ad14371bb69f99b7b95fee59080ee6f78e249969559",
    ("little_sister.json", 4242): "99e1b40c89f5501ce5bd3ad14371bb69f99b7b95fee59080ee6f78e249969559",
    ("minimal.json", 0): "988edd1a35c7b1ec11a45c3bae8bebd100290369a7cf2a07a4ecc4bda634a3a7",
    ("minimal.json", 4242): "988edd1a35c7b1ec11a45c3bae8bebd100290369a7cf2a07a4ecc4bda634a3a7",
    ("nine_actors.json", 7): "f84e54356fb1c0b43790edf468c412c6daf6db015da34e61006f87353b9822d5",
    ("nine_actors.json", 4242): "aef944ea019526118d2ea9d24605dec4af41086369b1c80898fade88a307b0a5",
    ("promotion.json", 1): "4345437c8a66264a01a754eb559c60ae3104bd684d7fb421638940ace3a4ca41",
    ("promotion.json", 4242): "4345437c8a66264a01a754eb559c60ae3104bd684d7fb421638940ace3a4ca41",
    ("pruning.json", 1): "f7ce6a236c792037d4107c62aeb7a02156d55ddd9164636d522ddb92c12b3ff0",
    ("pruning.json", 4242): "f7ce6a236c792037d4107c62aeb7a02156d55ddd9164636d522ddb92c12b3ff0",
}
# one sha256 over the traces of generator seeds 0-299 at GENERATED_HORIZON,
# then of each shipped scenario, by name, at its own seed, at 1 and at 4242
SWEEP = "d3f86b88f0659b3cf559b9ecb0eba7eb7bd76bea0580a33c4dcc535e91ce60d9"
# one sha256 over the traces of shared_member_list_scenario_dict seeds 0-39
SHARED_MEMBER_LISTS = "26c34c36ba0490e740a3cb2c3f58b3850574b20b1c060032483127c8754e62f0"
# generator seed -> (promotions, prunings, trace sha256)
GENERATED = {
    5000: (3, 0, "4db5ec975ed383286a571ad4e5a91b27768d0e68256f143f6ce700c8eab625ce"),
    5001: (2, 2, "5834c2040d26583e9342005e16b355b83dbe35c1a475603117ed0532eb22ab4f"),
    5002: (0, 0, "642d35032f890ddcb7af897341983ec028e6564360b2117e585dce4da9f82765"),
    5003: (0, 0, "bd6d2336ed2ce2c432fcca877ff5fb720a674ddb6de76fd92c5efc37d30b6808"),
    5004: (2, 0, "fe3b6ae4862b1913c2a552669a6f5ffa228066aaee4d04a49f15012cec1823df"),
    5005: (0, 0, "852878fa32bab97c0021c24d269c6d3c380c633a91f71c4355207018c631d66a"),
    5006: (0, 0, "f48575fbc73cb185f02a1dda7c28c749dd68a8c16e4528b3c331ea3e85190630"),
    5007: (1, 0, "ccc138befe362a4715e01209df2490f9a24a81ca21747897f32569a6ba70faeb"),
    5008: (2, 0, "341c7a5f8935163098a35beecc1cbb8edac4efc2230ceb3edbd5cbf4cc3787b4"),
    5009: (1, 1, "3b154347cde9e671fe3790043d1827d7f33bc91683579e33a177e8bbd8fec88e"),
    5010: (0, 0, "91e6da77207f9254295888413cadb668fb14220abdd7097f7743b32074e0ccf6"),
    5011: (0, 0, "f815f879a96ad648809c9a615c96f4da7bb15cbcd6e790cbd64b2729121cd282"),
    5012: (3, 0, "9cf8fde5fb575b547a5281db4c8980f9db2f8a7ded9b90aa2e175ef07c2a26f0"),
    5013: (0, 0, "f77f92d0bd886f903af68ec497ae7511f1fb8743b7e270594a77ef04222516c4"),
    5014: (0, 0, "4c0f8513bd48eb3d63a71a6dd818441060b1377a769b483bfd6cc6940c3e8f29"),
    5015: (3, 0, "a626915c198addd0fef6dd7875f82ced552e8d468fb387fe97a229c8500b89f3"),
    5016: (0, 0, "a551c7be71d57c01a02fc1c77b481864108fe10fe5a4a6a0fad500dbb912a4a5"),
    5017: (5, 1, "cba90cd592734bf8f4c14254d05ef347b667dcaf67378df1f4033ae5bbab21e8"),
    5018: (0, 0, "6b6669d894b6688f14742a8dc6ccd8d30a7b582840c47435cc146eafdb3be5f8"),
    5019: (0, 0, "f7abf4ea87747e29b5ab41ce33b9def5dc929384dd0fbfe76ad2789c5508b83c"),
    5020: (1, 1, "415b9ddf3b0795fbf37dec4873f23292e3b27c908bb9335f8099f1efb2288fff"),
    5021: (2, 0, "20f7659ee18f48e14b47b1c0d63959ce781987f10065c5bf6c97c58bf0e9111c"),
    5022: (0, 0, "95efea42f8e73ded7e9f41eaffc7e09c24b580b38ba0edbc88566de82e5fb5a3"),
    5023: (1, 0, "db6ca2678be1749320ba288fce4772e81f74b0df1752f05e18843fad83700ade"),
    5024: (2, 0, "440f6e0029fffa308e67f0d5af288b3eca5e294860eb35d492e0687e0a7b90d4"),
    5025: (0, 0, "c21a34dbfe07c0bdb8a084ae41f81a73a785bfd43eaf39b65cdd34da498352dd"),
    5026: (1, 0, "8c76e13750006e6acff3e9b3c25e86df534bbac40ff25f1a4eac1fa614a1881c"),
    5027: (0, 0, "e7dd8da80f99487c71560b6e73001d9239b6814fe8fe1158acd9752f0f5173b8"),
    5028: (1, 1, "2ceb262be608f0b52d40e9449cecbb7cdc169863de8e1465b221b05a5e855e2c"),
    5029: (1, 0, "9c0a45c7d668c2b3db820876a59dda77a137c7c8b01c36945cb57318cea6ff68"),
    5030: (3, 0, "5700c60f7092dc91bf43112ea8682251580fa232e1cd42460cf402459abbc133"),
    5031: (0, 0, "f4df575ea46bed3dbe7ac8f470347b0aef460071cda25bd267814e06cee98ba3"),
    5032: (3, 1, "57bb05121e610973bd83c104e7c777794f4bc66faab52b61444a2c76e5f40628"),
    5033: (4, 0, "8502fc740339bb688169c7e9611c46480165bed460167f893a255a53e8df4b13"),
    5034: (0, 0, "bd8f8565c1ca6fee497007cf20378e79adb47c9942ff5cc05160dde52a3ac55e"),
    5035: (0, 0, "58ea1bc056a23b79697e9a632a8244b190060e17eb21338f316a469c49738482"),
    5036: (0, 0, "f96c08344b5f82609cbe6e5d2dae0718406316342792030ceff9777d23ceb47f"),
    5037: (3, 0, "cabc17852526162c3b106f9b3cc2ad36e20b59adef69b082488ed8308304cf42"),
    5038: (0, 0, "f428a58aa5a6fb617c6bff197977684a29951c07b438e3895cb2db5762a8e116"),
    5039: (0, 0, "e34f19c0d9ef57897f4175521aa97c17b909c96c4b95b2021d7048f2d5225970"),
}


def _sha256(trace) -> str:
    return hashlib.sha256(write_trace(trace).encode("utf-8")).hexdigest()


def test_every_shipped_scenario_is_pinned():
    names = {p.name for p in SCENARIOS.glob("*.json")}
    assert names == {name for name, _ in FIXTURES}


def test_generated_set_exercises_evolution():
    assert sum(1 for p, _, _ in GENERATED.values() if p > 0) >= 10
    assert any(q > 0 for _, q, _ in GENERATED.values())


@pytest.mark.parametrize("name,seed", sorted(FIXTURES))
def test_fixture_trace_is_unchanged(name, seed):
    trace, _ = run_scenario(load_scenario_file(str(SCENARIOS / name)), seed=seed)
    assert _sha256(trace) == FIXTURES[(name, seed)]


@pytest.mark.parametrize("seed", sorted(GENERATED))
def test_generated_trace_is_unchanged(seed):
    promotions, prunings, digest = GENERATED[seed]
    trace, metrics = run_scenario(random_scenario(seed, horizon=GENERATED_HORIZON))
    assert (metrics.permanentifications, metrics.prunings) == (promotions, prunings)
    assert _sha256(trace) == digest


def test_generator_and_scenario_sweep_is_unchanged():
    digest = hashlib.sha256()
    for seed in range(300):
        trace, _ = run_scenario(random_scenario(seed, horizon=GENERATED_HORIZON))
        digest.update(write_trace(trace).encode("utf-8"))
    for path in sorted(SCENARIOS.glob("*.json")):
        scenario = load_scenario_file(str(path))
        for seed in (scenario.seed, 1, 4242):
            trace, _ = run_scenario(scenario, seed=seed)
            digest.update(write_trace(trace).encode("utf-8"))
    assert digest.hexdigest() == SWEEP


def test_shared_member_list_family_is_unchanged():
    digest = hashlib.sha256()
    for seed in range(40):
        trace, _ = run_scenario(scenario_from_dict(shared_member_list_scenario_dict(seed)))
        digest.update(write_trace(trace).encode("utf-8"))
    assert digest.hexdigest() == SHARED_MEMBER_LISTS
