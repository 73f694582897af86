"""Output bytes pinned against fixed references.

Each digest was produced by the code before any refactoring that claims
to keep behaviour.  A change that moves one of them changes the model's
output and must be argued as such, with the new value recorded.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from adaptsim import (
    BassParams,
    CapabilitySchedule,
    ChurnParams,
    EventSchedule,
    ExpectationManagement,
    NoveltyReset,
    Personalization,
    Release,
    SatisfactionParams,
    Scenario,
    Segment,
    SocialBenchmark,
    StrategicDip,
    run,
)
from adaptsim.cli import main
from adaptsim.config import (
    load_scenario,
    parse_scenario_document,
    scenario_digest,
    scenario_to_document,
)
from adaptsim.output import (
    phases_chart,
    run_csv_text,
    satisfaction_chart,
    segments_chart,
    traces_csv_text,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# sha256 of run_csv_text(run(load_scenario(configs/<name>.json)))
RUN_CSV = {
    "baseline": "d694e771976d63871453d1db2046a5ac4973b07e825baafe7b2e314eee4619b3",
    "continuous": "38f5fcb7fbae12b20fdaea624ea11f7830ba2c4aab86ef35105b125cbeafae54",
    "punctuated": "821c365b80ce9da13a07e8bab53eaf2242623d11e1cdb5bf2046fddbd0b5185a",
    "segments": "1cc532a2c873e7bdf83fd04738f3942bf6e515b2d02ed359dd5f0d462baa2b53",
    "interventions": "913f438d1fec181cd4ac938e94d4d235f58238811af0c25688152e1ce93e1b5c",
}

# sha256 of satisfaction_chart, segments_chart and phases_chart of
# run(load_scenario(configs/<name>.json)): the SVGs `simulate --plots` writes
SVG = {
    "baseline": {
        "satisfaction": "8bb75381257a1849366bbfd1a3f19a0d395ce748f413ba9501d746c4213c3538",
        "segments": "e94cf8ddc92bc57ae3a91098d7c31c14b10b29445df2d2192be8c5b04b4431d5",
        "phases": "511ed7b92a425f6217e24347c356da0ed5e5163cdb08454fd51acddfad081181",
    },
    "continuous": {
        "satisfaction": "9076434527fc2cefc63adbcd38979f758efe8ef9c331893c366f43b4ee29b7e2",
        "segments": "f26e144a72cafab86d611e621b9ad0597b76909401eefa37e362a2e3eb1a4641",
        "phases": "46349c028a452cee2101dccb363d6568c1089b6731d7e5bf3abd47292397362d",
    },
    "interventions": {
        "satisfaction": "77190ad1a109ca04422e8f343a3c85894cdebf6231f474a753828fb723e8f11c",
        "segments": "66241bcdb29531880911adf918c481bcc5c2a9493ccffe278641b80e87bf36dc",
        "phases": "65c1a5cebc2882d74668f5fa8db0166d078925c07f495ff6025875d804b50016",
    },
    "punctuated": {
        "satisfaction": "42e1b2ac34412f20d755e0712981a8ccf4e61f2f400d4f9410126d61664ce311",
        "segments": "2c41cc011a66ab2a57540391890912d578ddd4bd4ff1ccdc5f6e5dd30be26a45",
        "phases": "eaff168b50a0d3920a885af0e92df6d013127b4b69e994fcca84ec36051de22e",
    },
    "segments": {
        "satisfaction": "1129bb95b239b37cf124ca3700036a4260aa0c650574bf727b528054d33d1da5",
        "segments": "83dd0921c24ee209a9a952da9d0c70b7e2464750b464eae27b5d9c4ecbce9d62",
        "phases": "32f69ba0485d34bb3d049069d3178deba14ecdc73807d88fcb0776651fd45877",
    },
}

# sha256 of traces_csv_text(run(replace(load_scenario(configs/<name>.json), trace_agents=True)))
TRACES_CSV = {
    "interventions": "93c5def3e0543b4111d11a86bc8fc44ec19e71d4f2bfc077d9247e74e6285915",
    "punctuated": "e7b41b5d1ec256635ed43f1a03c168e4ad29f4f70f8a2f54253b0b043c7744a5",
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

# sha256 of run_csv_text and traces_csv_text of run(regimes_scenario())
REGIMES_RUN_CSV = "d58d010540a7963d0cbdb5825c803fff781eee97af581341c5d671526eee6937"
REGIMES_TRACES_CSV = "66c417e80616c7b4130dc6bd1592fc22328cf83635b4c32cd67ee1a737483eec"

# sha256 of the optimize-cadence CSV of configs/baseline.json, budget 1.5, intervals 4..19
CADENCE_CSV = "6481e8b99c01370c30b4709e7057eda464250c9d4bd286bb57bf1d75e05cdc0f"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(RUN_CSV))
def test_run_csv_digest(name):
    text = run_csv_text(run(load_scenario(CONFIGS / f"{name}.json")))
    assert sha256(text.encode("utf-8")) == RUN_CSV[name]


@pytest.mark.parametrize("name", sorted(SVG))
def test_svg_digests(name):
    out = run(load_scenario(CONFIGS / f"{name}.json"))
    charts = {"satisfaction": satisfaction_chart, "segments": segments_chart, "phases": phases_chart}
    got = {chart: sha256(draw(out).encode("utf-8")) for chart, draw in charts.items()}
    assert got == SVG[name]


@pytest.mark.parametrize("name", sorted(TRACES_CSV))
def test_traces_csv_digest(name):
    scenario = replace(load_scenario(CONFIGS / f"{name}.json"), trace_agents=True)
    text = traces_csv_text(run(scenario))
    assert sha256(text.encode("utf-8")) == TRACES_CSV[name]


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


def regimes_scenario() -> Scenario:
    """Every intervention kind, periodic, with churn on: expectation
    management and the social benchmark each switch on and off twice,
    personalization fires four times and the dip windows overlap."""
    interventions = (
        NoveltyReset(rho=0.3, decay_delta=0.8, schedule=EventSchedule(start=7, period=11)),
        Personalization(
            max_log_mult=0.4, gamma_damp_omega=0.5, schedule=EventSchedule(start=6, period=10)
        ),
        ExpectationManagement(
            weight_w=0.6, announce_discount_a=0.7, schedule=EventSchedule(start=4, period=8)
        ),
        SocialBenchmark(beta0=0.8, tau=5.0, schedule=EventSchedule(start=2, period=9)),
        StrategicDip(depth=0.3, duration=5, schedule=EventSchedule(start=5, period=3)),
    )
    return Scenario(
        horizon=40,
        population_size=300,
        segments=(
            Segment(name="early", fraction=0.4, gamma_range=(0.2, 0.5), bass=BassParams(p=0.1, q=0.4)),
            Segment(name="late", fraction=0.6, gamma_range=(0.05, 0.2), bass=BassParams(p=0.02, q=0.3)),
        ),
        schedule=CapabilitySchedule(kind="continuous", c0=1.0, resource_growth=0.3, alpha=0.2),
        satisfaction=SatisfactionParams(k=1.5, b=0.1, loss_aversion=2.25),
        churn=ChurnParams(s_churn=0.0, eta=2.0, cap=0.1),
        interventions=interventions,
        seed=11,
        trace_agents=True,
    )


def test_regimes_run_and_traces_digest():
    out = run(regimes_scenario())
    assert out.frac_churned[-1] > 0.0
    assert sha256(run_csv_text(out).encode("utf-8")) == REGIMES_RUN_CSV
    assert sha256(traces_csv_text(out).encode("utf-8")) == REGIMES_TRACES_CSV


def test_cadence_csv_digest(tmp_path, capsys):
    out = tmp_path / "cadence.csv"
    argv = [
        "optimize-cadence",
        "--config", str(CONFIGS / "baseline.json"),
        "--budget", "1.5",
        "--intervals", "4..19",
        "--out", str(out),
    ]  # fmt: skip
    assert main(argv) == 0
    capsys.readouterr()
    assert sha256(out.read_bytes()) == CADENCE_CSV


def python_scenarios() -> list[Scenario]:
    """Scenarios built in Python with ints in float fields, every
    intervention kind, and every schedule kind that has list fields."""
    segment = Segment(name="all", fraction=1, gamma_range=(0, 1), bass=BassParams(p=0, q=1))
    interventions = (
        NoveltyReset(rho=0.5, decay_delta=1, schedule=EventSchedule(start=2, period=5)),
        Personalization(max_log_mult=0, gamma_damp_omega=0, schedule=EventSchedule(at=3)),
        ExpectationManagement(weight_w=1, announce_discount_a=1, schedule=EventSchedule(at=4)),
        SocialBenchmark(beta0=0, tau=1, schedule=EventSchedule(start=1, period=7)),
        StrategicDip(depth=0.5, duration=2, schedule=EventSchedule(at=5)),
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
