"""Configuration schema, loader, and CLI tests."""

import json

import pytest

from repro.config import load_config, parse_config, run_config
from repro.config.cli import main as cli_main
from repro.core.engine import DSEEngine
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
        assert len(parsed.sweep.cells) == 1
        assert parsed.sweep.capacities_bytes == [1024 * 1024]

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
        names = {c.name for c in parsed.sweep.cells}
        assert "SRAM-16nm" in names

    def test_custom_cell(self):
        config = minimal_config()
        config["cells"]["custom"] = [
            {"name": "my-rram", "tech_class": "RRAM", "area_f2": 6.0}
        ]
        parsed = parse_config(config)
        assert any(c.name == "my-rram" for c in parsed.sweep.cells)

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
            assert len(parsed.sweep.traffic) == expectation

    def test_dnn_intermittent_traffic(self):
        parsed = parse_config(
            minimal_config(
                traffic={"kind": "dnn-intermittent", "workload": "albert",
                         "capacity_mb": 32}
            )
        )
        assert len(parsed.sweep.traffic) == 1
        assert "albert" in parsed.sweep.traffic[0].name

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
        with pytest.raises(ConfigError, match="system: unknown optimization target"):
            parse_config(
                minimal_config(system={"capacities_mb": [1],
                                       "optimization_targets": ["Vibes"]})
            )

    @pytest.mark.parametrize("section, value, match", [
        ("system", {"capacities_mb": 4}, "system: "),
        ("system", {"capacities_mb": [1], "access_bits": "wide"}, "system: "),
        ("system", {"capacities_mb": [1], "node_nm": "x"}, "system: "),
        ("runtime", {"seed": "abc"}, "runtime: "),
        ("runtime", {"seed": 3.7}, "runtime: seed must be an integer"),
        ("runtime", {"seed": True}, "runtime: seed must be an integer"),
        ("cells", {"technologies": ["STT"], "include_sram": True,
                   "sram_node_nm": "x"}, "cells: "),
        ("cells", {"technologies": ["STT"], "flavors": 5}, "cells: "),
        ("traffic", {"kind": "generic", "points": "x"}, "traffic: "),
        ("traffic", {"kind": "generic", "min_reads": "lots"}, "traffic: "),
        ("traffic", {"kind": "graph-generic", "points": [4]}, "traffic: "),
        ("traffic", {"kind": "dnn-continuous", "buffer_mb": "big"}, "traffic: "),
    ], ids=["capacities_mb", "access_bits", "node_nm", "seed", "seed_fraction", "seed_bool",
            "sram_node_nm", "flavors", "points", "min_reads", "graph_points",
            "buffer_mb"])
    def test_malformed_scalar_is_a_config_error(self, section, value, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(minimal_config(**{section: value}))

    @pytest.mark.parametrize("section", ["cells", "system", "traffic"])
    def test_non_object_section_is_a_config_error(self, section):
        with pytest.raises(ConfigError, match=f"{section} section must be an object"):
            parse_config(minimal_config(**{section: ["STT"]}))

    def test_unknown_top_level_key_rejected(self):
        # A typo must not silently sweep the defaults (4 MB here).
        config = {"cells": {"technologies": ["STT"]}, "sytem": {"capacities_mb": [1]}}
        with pytest.raises(ConfigError, match=r"unknown key\(s\) \['sytem'\]") as info:
            parse_config(config)
        for known in ("name", "description", "cells", "system", "traffic",
                      "output_csv", "runtime"):
            assert repr(known) in str(info.value)

    def test_every_top_level_key_accepted(self):
        parsed = parse_config(minimal_config(
            description="d", traffic={"kind": "spec2017"}, output_csv="x.csv",
            runtime={}))
        assert parsed.output_csv == "x.csv"

    def test_integral_seed_parses(self):
        for seed in (3, 3.0, "3"):
            assert parse_config(minimal_config(runtime={"seed": seed})).runtime.seed == 3

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

    def test_cli_malformed_scalar(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(minimal_config(system={"capacities_mb": 4})))
        assert cli_main([str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: system: ")
        assert "Traceback" not in err


class TestRuntimeSectionExtensions:
    def test_seed_parsed_unknown_keys_rejected(self):
        runtime = {"cache_dir": "c", "seed": 11}
        parsed = parse_config(minimal_config(runtime=runtime))
        assert parsed.runtime.seed == 11
        # A typo'd or retired key is an error, not a silent default.
        for unknown in ("cache-dir", "workers", "point_shard_count", "chaos", "trace_cache_dir"):
            message = rf"unknown runtime option.*'{unknown}'.*cache_dir"
            with pytest.raises(ConfigError, match=message):
                parse_config(minimal_config(runtime={**runtime, unknown: 2}))

    def test_trace_cache_defaults_from_cache_dir(self, tmp_path):
        options = parse_config(minimal_config(
            runtime={"cache_dir": str(tmp_path)}
        )).runtime
        assert DSEEngine(options).trace_cache.root == tmp_path / "traces"


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

    @pytest.mark.parametrize("param, message", [
        ("oops", "KEY=VALUE"),
        ("warp_factor=9", "bad params"),
        ("runtime=1", "'runtime' is not a study parameter"),
    ], ids=["syntax", "unknown", "runtime"])
    def test_run_study_bad_param(self, param, message, capsys):
        assert cli_main(["run-study", "ext_hierarchy", "--param", param]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "run-study"])
    def test_runtime_flags_forwarded(self, command, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(minimal_config()))
        target = [str(path)] if command == "sweep" else ["run-study", "ext_hierarchy"]
        cache = tmp_path / "cache"
        assert cli_main([*target, "--cache-dir", str(cache)]) == 0
        assert (cache / "arrays").exists()

    @pytest.mark.parametrize("overrides", [
        {"traffic": {"kind": "generic", "points": "x"}},
        {"cells": {"technologies": ["STT"], "include_sram": True, "sram_node_nm": "x"}},
        {"sytem": {"capacities_mb": [1]}},
    ], ids=["traffic_points", "sram_node_nm", "unknown_key"])
    def test_bad_config_is_an_error_line(self, overrides, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(minimal_config(**overrides)))
        assert cli_main([str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("raw", [
        {"study": "ext_hierarchy", "params": {}},
        {"suite": {}},
    ], ids=["study", "suite"])
    def test_non_sweep_config_rejected(self, raw, tmp_path, capsys):
        # Studies have no config shape (they run through `run-study` or
        # the summary driver), so such a file is a sweep without cells.
        path = tmp_path / "other.json"
        path.write_text(json.dumps(raw))
        assert cli_main([str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "'cells'" in err
        assert "Traceback" not in err
