"""Configuration schema, loader, and CLI tests."""

import json
from pathlib import Path

import pytest

from repro.config import (
    is_study_config,
    is_suite_config,
    load_config,
    parse_config,
    parse_study_config,
    parse_suite_config,
    run_config,
    run_study_config,
)
from repro.config.cli import main as cli_main
from repro.errors import ConfigError


def minimal_config(**overrides):
    config = {
        "name": "test-sweep",
        "cells": {"technologies": ["STT"], "flavors": ["optimistic"]},
        "system": {"capacities_mb": [1]},
    }
    config.update(overrides)
    return config


class TestSchema:
    def test_minimal_config_parses(self):
        parsed = parse_config(minimal_config())
        assert parsed.name == "test-sweep"
        assert len(parsed.cells) == 1
        assert parsed.capacities_bytes == [1024 * 1024]

    def test_missing_cells_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"name": "x"})

    def test_empty_cell_selection_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(minimal_config(cells={"technologies": []}))

    def test_unknown_flavor_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(
                minimal_config(cells={"technologies": ["STT"], "flavors": ["shiny"]})
            )

    def test_sram_baseline_included(self):
        parsed = parse_config(
            minimal_config(
                cells={"technologies": ["STT"], "flavors": ["optimistic"],
                       "include_sram": True}
            )
        )
        names = {c.name for c in parsed.cells}
        assert "SRAM-16nm" in names

    def test_custom_cell(self):
        config = minimal_config()
        config["cells"]["custom"] = [
            {"name": "my-rram", "tech_class": "RRAM", "area_f2": 6.0}
        ]
        parsed = parse_config(config)
        assert any(c.name == "my-rram" for c in parsed.cells)

    def test_custom_cell_bad_field_rejected(self):
        config = minimal_config()
        config["cells"]["custom"] = [
            {"name": "bad", "tech_class": "RRAM", "area_f2": 6.0, "wat": 1}
        ]
        with pytest.raises(ConfigError):
            parse_config(config)

    def test_traffic_kinds(self):
        for kind, expectation in (
            ({"kind": "generic", "points": 2}, 4),
            ({"kind": "spec2017"}, 20),
            ({"kind": "dnn-continuous"}, 4),
        ):
            parsed = parse_config(minimal_config(traffic=kind))
            assert len(parsed.traffic) == expectation

    def test_dnn_intermittent_traffic(self):
        parsed = parse_config(
            minimal_config(
                traffic={"kind": "dnn-intermittent", "workload": "albert",
                         "capacity_mb": 32}
            )
        )
        assert len(parsed.traffic) == 1
        assert "albert" in parsed.traffic[0].name

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(
                minimal_config(traffic={"kind": "dnn-intermittent",
                                        "workload": "nope"})
            )

    def test_unknown_traffic_kind_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(minimal_config(traffic={"kind": "quantum"}))

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            parse_config(
                minimal_config(system={"capacities_mb": [1],
                                       "optimization_targets": ["Vibes"]})
            )

    def test_bits_per_cell_validated(self):
        with pytest.raises(ConfigError):
            parse_config(
                minimal_config(system={"capacities_mb": [1], "bits_per_cell": 0})
            )


class TestLoader:
    def test_run_config_from_dict(self):
        table = run_config(minimal_config())
        assert len(table) == 1
        assert table[0]["tech"] == "STT"

    def test_run_config_from_file_with_csv(self, tmp_path):
        out_csv = tmp_path / "results.csv"
        config = minimal_config(output_csv=str(out_csv))
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        table = run_config(path)
        assert out_csv.exists()
        assert len(table) == 1

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)


class TestCLI:
    def test_cli_happy_path(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(minimal_config()))
        code = cli_main([str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 result rows" in out

    def test_cli_table_flag(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(minimal_config()))
        assert cli_main([str(path), "--table"]) == 0
        assert "| cell |" in capsys.readouterr().out

    def test_cli_csv_flag(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(minimal_config()))
        out_csv = tmp_path / "o.csv"
        assert cli_main([str(path), "--csv", str(out_csv)]) == 0
        assert out_csv.exists()

    def test_cli_error_path(self, tmp_path, capsys):
        assert cli_main([str(tmp_path / "missing.json")]) == 1
        assert "error" in capsys.readouterr().err


def study_config(**overrides):
    config = {
        "study": "ext_hierarchy",
        "params": {"read_hit_rate": 0.5},
        "runtime": {"on_error": "raise"},
    }
    config.update(overrides)
    return config


class TestRuntimeSectionExtensions:
    def test_trace_cache_dir_and_seed_parsed(self):
        runtime = {"cache_dir": "c", "trace_cache_dir": "t", "seed": 11}
        parsed = parse_config(minimal_config(runtime=runtime))
        assert parsed.trace_cache_dir == "t"
        assert parsed.seed == 11
        options = parsed.runtime_options()
        assert str(options.effective_trace_cache_dir) == "t"
        assert options.seed == 11
        # A typo'd or retired key is an error, not a silent default.
        for unknown in ("cache-dir", "workers", "point_shard_count", "chaos"):
            message = rf"unknown runtime option.*'{unknown}'.*cache_dir"
            with pytest.raises(ConfigError, match=message):
                parse_config(minimal_config(runtime={**runtime, unknown: 2}))

    def test_trace_cache_defaults_from_cache_dir(self):
        options = parse_config(minimal_config(
            runtime={"cache_dir": "root"}
        )).runtime_options()
        assert str(options.effective_trace_cache_dir) == str(Path("root") / "traces")


class TestStudyConfig:
    def test_parse_study_config(self):
        parsed = parse_study_config(study_config())
        assert parsed.study == "ext_hierarchy"
        assert parsed.params == {"read_hit_rate": 0.5}
        assert parsed.runtime.on_error == "raise"

    def test_unknown_study_rejected(self):
        with pytest.raises(ConfigError, match="unknown study"):
            parse_study_config(study_config(study="fig99_flying_cars"))

    def test_missing_study_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_study_config({"params": {}})

    def test_is_study_config(self):
        assert is_study_config(study_config())
        assert not is_study_config(minimal_config())

    def test_load_config_rejects_study_configs(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text(json.dumps(study_config()))
        with pytest.raises(ConfigError, match="registered-study"):
            load_config(path)

    def test_run_study_config_writes_artifacts(self, tmp_path):
        config = study_config(
            output_csv=str(tmp_path / "h.csv"),
            report_md=str(tmp_path / "h.md"),
        )
        table = run_study_config(config)
        assert len(table) == 9
        assert (tmp_path / "h.csv").exists()
        report = (tmp_path / "h.md").read_text()
        assert "Reproduces paper" in report

    def test_run_study_config_bad_param_rejected(self):
        with pytest.raises(ConfigError, match="bad params"):
            run_study_config(study_config(params={"warp_factor": 9}))

    def test_run_study_config_runtime_overrides(self, tmp_path):
        cache = tmp_path / "cache"
        run_study_config(study_config(), cache_dir=str(cache))
        assert (cache / "arrays").exists()


class TestStudyCLI:
    def test_list_studies(self, capsys):
        assert cli_main(["list-studies"]) == 0
        assert "fig09_spec_llc" in capsys.readouterr().out

    def test_run_study_happy_path(self, tmp_path, capsys):
        out_csv = tmp_path / "h.csv"
        code = cli_main(["run-study", "ext_hierarchy", "--csv", str(out_csv)])
        assert code == 0
        assert out_csv.exists()
        assert "9 result rows" in capsys.readouterr().out

    def test_run_study_param_override(self, capsys):
        code = cli_main([
            "run-study", "ext_hierarchy",
            "--param", "front_sizes_kb=[16]", "--table",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 result rows" in out

    def test_run_study_unknown_name(self, capsys):
        assert cli_main(["run-study", "fig99_flying_cars"]) == 1
        assert "unknown study" in capsys.readouterr().err

    def test_run_study_bad_param_syntax(self, capsys):
        assert cli_main(["run-study", "ext_hierarchy", "--param", "oops"]) == 1
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_study_config_file_dispatched(self, tmp_path, capsys):
        path = tmp_path / "study.json"
        path.write_text(json.dumps(study_config()))
        assert cli_main([str(path)]) == 0
        assert "9 result rows" in capsys.readouterr().out

    def test_runtime_flags_forwarded(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(minimal_config()))
        cache = tmp_path / "cache"
        assert cli_main([str(path), "--cache-dir", str(cache)]) == 0
        assert (cache / "arrays").exists()


def suite_config(tmp_path, **suite_overrides):
    suite = {
        "only": ["ext_hierarchy"],
        "output_dir": str(tmp_path / "out"),
        "incremental": True,
    }
    suite.update(suite_overrides)
    return {"suite": suite}


class TestSuiteConfig:
    def test_is_suite_config(self, tmp_path):
        assert is_suite_config(suite_config(tmp_path))
        assert not is_suite_config(minimal_config())
        assert not is_study_config(suite_config(tmp_path))

    def test_parse_defaults(self):
        parsed = parse_suite_config({"suite": {}})
        assert parsed.only is None
        assert parsed.output_dir == "output"
        assert parsed.incremental

    def test_unknown_study_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown study"):
            parse_suite_config(suite_config(tmp_path, only=["fig99_warp"]))

    def test_unknown_suite_keys_rejected(self, tmp_path):
        # A typo (which would silently run incrementally) or a retired
        # shard key (which would silently run the whole suite) is an
        # error that lists the known keys.
        for unknown in ("incremantal", "shard_index", "shard_count",
                        "point_shard_index", "point_shard_count"):
            with pytest.raises(ConfigError,
                               match=r"unknown suite option.*incremental"):
                parse_suite_config(suite_config(tmp_path, **{unknown: 1}))

    def test_only_must_be_a_list(self, tmp_path):
        with pytest.raises(ConfigError, match="list of study names"):
            parse_suite_config(suite_config(tmp_path, only="ext_hierarchy"))

    def test_load_config_rejects_suite_shape(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(suite_config(tmp_path)))
        with pytest.raises(ConfigError, match="suite-run config"):
            load_config(path)


class TestSuiteCLI:
    def test_suite_config_dispatched(self, tmp_path, capsys):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(suite_config(tmp_path)))
        assert cli_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "| ext_hierarchy | ok |" in out
        assert (tmp_path / "out" / "manifest.json").exists()
        # Second run: fully incremental, distinct exit code.
        assert cli_main([str(path)]) == 3
        assert "| ext_hierarchy | cached |" in capsys.readouterr().out

    def test_suite_config_rejects_table_output_flags(self, tmp_path, capsys):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(suite_config(tmp_path)))
        assert cli_main([str(path), "--csv", str(tmp_path / "x.csv")]) == 1
        assert "not supported for suite configs" in capsys.readouterr().err
