"""The shared on-disk codec, and byte identity with files written before it.

The files under ``tests/data`` come from ``tests/golden.py``, run on the
code before the analyzer, trainer and ES writers moved onto
``popscape.utils``; re-writing what they hold must give the same bytes.
"""

import json
import shutil
from dataclasses import asdict

import numpy as np
import pytest

from popscape.analyzer import load_checkpoint, save_checkpoint
from popscape.errors import IntegrityError
from popscape.es import EsVariant, state_from_dict
from popscape.trainer import (
    GenerationRecord,
    _save_trainer_checkpoint,
    latest_checkpoint,
    load_trainer_checkpoint,
    train,
)
from popscape.utils import csv_text, f8_from_b64, f8_to_b64, read_sealed, write_sealed

from .golden import (
    ANALYZER,
    DATA,
    PROVENANCE,
    RUN_FILES,
    analyzer_theta,
    es_state_after_two_updates,
    es_state_text,
    golden_run,
)

NAN_PAYLOAD = np.array([0x7FF8_0000_0000_BEEF], dtype="<u8").view("<f8")


@pytest.mark.parametrize(
    "values",
    [
        np.array([-0.0, 0.0]),
        np.array([np.inf, -np.inf]),
        NAN_PAYLOAD,
        np.array([5e-324, -2.2250738585072014e-308 / 3]),
        np.array([]),
    ],
    ids=["signed_zero", "inf", "nan_payload", "subnormal", "empty"],
)
def test_f8_round_trip_keeps_every_bit(values):
    back = f8_from_b64(f8_to_b64(values))
    assert back.dtype == np.float64 and back.shape == values.shape
    assert back.flags.writeable
    assert back.view("<u8").tolist() == values.astype("<f8").view("<u8").tolist()


def test_csv_cells_round_trip_floats_and_mark_missing():
    x = np.float64(0.1) * 3
    text = csv_text(["a", "b", "c", "d"], [[None, 1.5, x, 7]])
    assert text == f"a,b,c,d\nNA,1.5,{float(x)!r},7\n"
    assert float(text.splitlines()[1].split(",")[2]) == x


def test_sealed_file_rejects_tampering_and_other_formats(tmp_path):
    path = tmp_path / "sealed.json"
    write_sealed(path, {"format": "demo", "value": 1.5})
    assert read_sealed(path, "demo") == {"format": "demo", "value": 1.5}
    with pytest.raises(IntegrityError, match="not a other file"):
        read_sealed(path, "other")
    path.write_text(path.read_text().replace("1.5", "2.5"))
    with pytest.raises(IntegrityError, match="integrity check"):
        read_sealed(path, "demo")
    path.write_text("[1, 2]")
    with pytest.raises(IntegrityError):
        read_sealed(path, "demo")
    assert [p.name for p in tmp_path.iterdir()] == ["sealed.json"]


def test_analyzer_checkpoint_rewrites_to_identical_bytes(tmp_path):
    config, theta, provenance = load_checkpoint(DATA / "analyzer.json")
    assert config == ANALYZER and provenance == PROVENANCE
    assert theta.view("<u8").tolist() == analyzer_theta().view("<u8").tolist()
    save_checkpoint(tmp_path / "a.json", config, theta, provenance)
    assert (tmp_path / "a.json").read_bytes() == (DATA / "analyzer.json").read_bytes()


@pytest.mark.parametrize("variant", [v.value for v in EsVariant])
def test_es_state_rewrites_to_identical_bytes(variant):
    text = (DATA / f"es_state_{variant}.json").read_text()
    assert es_state_text(state_from_dict(json.loads(text))) == text
    assert es_state_text(es_state_after_two_updates(EsVariant(variant))) == text


def test_run_config_dict_matches_stored_config():
    stored = (DATA / "run" / "config.json").read_text()
    assert json.dumps(asdict(golden_run()), indent=1, sort_keys=True) == stored


def test_trainer_checkpoint_rewrites_to_identical_bytes(tmp_path):
    golden = DATA / "run" / "gen_0000.json"
    payload = load_trainer_checkpoint(golden)
    run = golden_run()
    assert payload["run_digest"] == run.digest()
    best = dict(payload["best"])
    best["theta"] = f8_from_b64(best.pop("theta_b64"))
    records = [GenerationRecord(**r) for r in payload["records"]]
    state = state_from_dict(payload["es_state"])
    _save_trainer_checkpoint(tmp_path, run, state, best, records, payload["generation"])
    assert latest_checkpoint(tmp_path).read_bytes() == golden.read_bytes()


def test_stored_checkpoint_resumes_to_stored_run_files(tmp_path):
    (tmp_path / "checkpoints").mkdir()
    shutil.copy(DATA / "run" / "gen_0000.json", tmp_path / "checkpoints")
    result = train(golden_run(), tmp_path, resume=True)
    for name in RUN_FILES:
        assert (tmp_path / name).read_bytes() == (DATA / "run" / name).read_bytes(), name
    assert result.generation == 0  # the stored run's best came from generation 0

