"""Output bytes pinned against fixed references.

Each digest was produced by the code before any refactoring that claims
to keep behaviour.  A change that moves one of them changes the model's
output and must be argued as such, with the new value recorded.
"""

import hashlib
from pathlib import Path

import pytest

from adaptsim import (
    BassParams,
    CapabilitySchedule,
    ChurnParams,
    ExpectationManagement,
    NoveltyReset,
    Personalization,
    Release,
    SatisfactionParams,
    Scenario,
    Segment,
    SocialBenchmark,
    StrategicDip,
    one_shot,
    periodic,
    run,
)
from adaptsim.cli import main
from adaptsim.config import (
    load_scenario,
    parse_scenario_document,
    scenario_digest,
    scenario_to_document,
)
from adaptsim.output import run_csv_text

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# sha256 of run_csv_text(run(load_scenario(configs/<name>.json)))
RUN_CSV = {
    "baseline": "d694e771976d63871453d1db2046a5ac4973b07e825baafe7b2e314eee4619b3",
    "continuous": "38f5fcb7fbae12b20fdaea624ea11f7830ba2c4aab86ef35105b125cbeafae54",
    "punctuated": "821c365b80ce9da13a07e8bab53eaf2242623d11e1cdb5bf2046fddbd0b5185a",
    "segments": "1cc532a2c873e7bdf83fd04738f3942bf6e515b2d02ed359dd5f0d462baa2b53",
    "interventions": "913f438d1fec181cd4ac938e94d4d235f58238811af0c25688152e1ce93e1b5c",
}

# the scenario digest `adaptsim validate` prints
VALIDATE = {
    "baseline": "b196352982367c3bdf273b1871a92254a7709c795096363d780cd26f84d16d23",
    "continuous": "6ca636fd3e32337e193148d4c7d13d012d3675bc5d912f022767e5b32ea43cfb",
    "punctuated": "0a37f0ac958e24cff1c9047d6275032d595b398cb178c272efd8e74a754f5d67",
    "segments": "756e0bab2e8d1187f4b2ee800d3b2bf05e2cb805bec78d886db87352a8a232cc",
    "interventions": "da6d5d0ed07d7bab1b903d27e0b69328d072c6a3addaa0bc1222e17af15704da",
}

# sha256 of the sweep CSV of configs/sweep_gamma.json over configs/baseline.json
SWEEP_CSV = "20935f1dae5ceb7c275618b0d8b111dd43d25cb856982457684a093d9fb779a8"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(RUN_CSV))
def test_run_csv_digest(name):
    text = run_csv_text(run(load_scenario(CONFIGS / f"{name}.json")))
    assert sha256(text.encode("utf-8")) == RUN_CSV[name]


@pytest.mark.parametrize("name", sorted(VALIDATE))
def test_validate_digest(name, capsys):
    assert main(["validate", "--config", str(CONFIGS / f"{name}.json")]) == 0
    assert capsys.readouterr().out == f"ok: digest {VALIDATE[name]}\n"


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_csv_digest(workers, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = [
        "sweep",
        "--config", str(CONFIGS / "baseline.json"),
        "--sweep", str(CONFIGS / "sweep_gamma.json"),
        "--parallel", str(workers),
        "--out", str(out),
    ]  # fmt: skip
    assert main(argv) == 0
    capsys.readouterr()
    assert sha256(out.read_bytes()) == SWEEP_CSV


def python_scenarios() -> list[Scenario]:
    """Scenarios built in Python with ints in float fields, every
    intervention kind, and every schedule kind that has list fields."""
    segment = Segment(name="all", fraction=1, gamma_range=(0, 1), bass=BassParams(p=0, q=1))
    interventions = (
        NoveltyReset(rho=0.5, decay_delta=1, schedule=periodic(2, 5)),
        Personalization(max_log_mult=0, gamma_damp_omega=0, schedule=one_shot(3)),
        ExpectationManagement(weight_w=1, announce_discount_a=1, schedule=one_shot(4)),
        SocialBenchmark(beta0=0, tau=1, schedule=periodic(1, 7)),
        StrategicDip(depth=0.5, duration=2, schedule=one_shot(5)),
    )
    hybrid = Scenario(
        horizon=30,
        population_size=20,
        segments=(segment,),
        schedule=CapabilitySchedule(
            kind="hybrid", c0=1, resource_growth=0, alpha=1, releases=(Release(time=3, log_jump=1),)
        ),
        satisfaction=SatisfactionParams(k=1, b=0, loss_aversion=2),
        churn=ChurnParams(s_churn=0, eta=1, cap=1),
        interventions=interventions,
        seed=5,
    )
    table = Scenario(
        horizon=3,
        population_size=4,
        segments=(segment,),
        schedule=CapabilitySchedule(kind="table", values=(1, 2, 3)),
        satisfaction=SatisfactionParams(k=1, b=0),
        trace_agents=True,
    )
    return [hybrid, table]


@pytest.mark.parametrize(
    "scenario",
    [load_scenario(CONFIGS / f"{name}.json") for name in sorted(RUN_CSV)] + python_scenarios(),
)
def test_document_round_trip_keeps_digest(scenario):
    reparsed = parse_scenario_document(scenario_to_document(scenario))
    assert scenario_digest(reparsed) == scenario_digest(scenario)
    assert reparsed == scenario
