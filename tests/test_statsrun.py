import json

import pytest

from volmc import statsrun, synth
from volmc.meshio import write_hex_mesh


def _cached_rows(path):
    with open(path) as fh:
        return sorted(row["model"] for row in json.load(fh).values())


def test_interrupted_sweep_keeps_finished_models(tmp_path, monkeypatch):
    corpus = tmp_path / "c"
    corpus.mkdir()
    write_hex_mesh(synth.box_mesh(1, 1, 1), str(corpus / "a.mesh"))
    write_hex_mesh(synth.box_mesh(2, 1, 1), str(corpus / "b.mesh"))
    real = statsrun.model_stats
    calls = []

    def interrupted_on_second(path, seed=0):
        calls.append(path)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return real(path, seed=seed)

    monkeypatch.setattr(statsrun, "model_stats", interrupted_on_second)
    cache = tmp_path / "cache.json"
    with pytest.raises(KeyboardInterrupt):
        statsrun.run_stats(str(corpus), cache_path=str(cache))
    assert _cached_rows(cache) == ["a"]


def test_only_volmc_errors_are_cached(tmp_path, monkeypatch):
    corpus = tmp_path / "c"
    corpus.mkdir()
    (corpus / "broken.mesh").write_text("Vertices\n1\nnot a number\n")
    write_hex_mesh(synth.box_mesh(1, 1, 1), str(corpus / "ok.mesh"))
    real = statsrun.model_stats

    def faulty_on_ok(path, seed=0):
        if path.endswith("ok.mesh"):
            raise TypeError("internal fault")
        return real(path, seed=seed)

    monkeypatch.setattr(statsrun, "model_stats", faulty_on_ok)
    cache = tmp_path / "cache.json"
    rows = statsrun.run_stats(str(corpus), cache_path=str(cache))
    assert [r["model"] for r in rows] == ["broken", "ok"]
    assert rows[0]["error"].startswith("ParseError")
    assert rows[1]["error"] == "TypeError: internal fault"
    assert _cached_rows(cache) == ["broken"]
