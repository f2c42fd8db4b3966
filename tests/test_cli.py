import json

import numpy as np
import pytest
from click.testing import CliRunner

from portclone import verification
from portclone.channels import protocol_fidelity
from portclone.cli import main
from portclone.measurements import std_pbtc_povm


@pytest.fixture
def runner():
    return CliRunner()


class TestFidelityCommand:
    def test_json_output(self, runner):
        res = runner.invoke(main, ["fidelity", "--protocol", "std-pbt", "--N", "3"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["protocol"] == "std-pbt"
        assert 0 < doc["f"] < 1

    def test_reports_blocks(self, runner):
        # [X, A1..A3] at d=2 splits into blocks of size 1, 4, 6, 4, 1; the
        # level swap pairs them into 3 orbits
        res = runner.invoke(main, ["fidelity", "--protocol", "std-pbtc", "--N", "3", "--M", "2"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert (doc["n_blocks"], doc["max_block_dim"], doc["n_orbits"]) == (5, 6, 3)

    def test_missing_n_rejected(self, runner):
        res = runner.invoke(main, ["fidelity", "--protocol", "std-pbtc"])
        assert res.exit_code != 0
        assert "--N is required" in res.output

    def test_clone_needs_no_n(self, runner):
        res = runner.invoke(main, ["fidelity", "--protocol", "clone", "--M", "2"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert abs(doc["f"] - 5 / 6) < 1e-10

    def test_bad_params_reported(self, runner):
        res = runner.invoke(
            main, ["fidelity", "--protocol", "std-pbtc", "--N", "2", "--M", "3"]
        )
        assert res.exit_code != 0
        assert "M=3" in res.output

    @pytest.mark.parametrize("args,message", [
        (["--M", "0"], "need M >= 1, got M=0"),
        (["--d", "1", "--M", "2"], "local dimensions must be >= 2"),
    ])
    def test_clone_refusals_reported(self, runner, args, message):
        res = runner.invoke(main, ["fidelity", "--protocol", "clone"] + args)
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert f"Error: {message}" in res.output and "Traceback" not in res.output


class TestSweepCommand:
    def test_csv_and_svg(self, runner, tmp_path):
        csv_path = tmp_path / "out.csv"
        svg_path = tmp_path / "out.svg"
        res = runner.invoke(main, [
            "sweep", "--protocols", "std-pbtc,clone-mpbt", "--N-range", "2:3",
            "--csv", str(csv_path), "--svg", str(svg_path),
        ])
        assert res.exit_code == 0, res.output
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == (
            "protocol,d,N,M,F,f,delta_contribution,"
            "n_blocks,max_block_dim,n_orbits,kept_rank,n_pieces,max_piece_dim,runtime_ms"
        )
        assert len(lines) == 5
        svg = svg_path.read_text()
        assert svg.startswith("<svg")
        assert "asymptote" in svg

    @pytest.mark.parametrize("protocols, m, asymptote", [
        ("std-pbt", 1, 1.0),  # std-pbt always runs with M=1, whatever --M says
        ("std-pbt,std-pbtc", 2, 5 / 6),
    ])
    def test_svg_asymptote_follows_the_m_swept(self, runner, tmp_path, protocols, m, asymptote):
        svg_path = tmp_path / "out.svg"
        res = runner.invoke(main, [
            "sweep", "--protocols", protocols, "--N-range", "2:4",
            "--csv", str(tmp_path / "out.csv"), "--svg", str(svg_path),
        ])
        assert res.exit_code == 0, res.output
        svg = svg_path.read_text()
        meta = json.loads(svg[svg.index("<metadata>") + 10:svg.index("</metadata>")])
        assert (meta["d"], meta["M"]) == (2, m)
        assert abs(meta["asymptote"] - asymptote) < 1e-12

    def test_csv_reports_blocks_and_kept_rank(self, runner, tmp_path):
        csv_path = tmp_path / "out.csv"
        res = runner.invoke(main, [
            "sweep", "--protocols", "std-pbtc,clone-mpbt,std-pbt", "--N-range", "3:4",
            "--csv", str(csv_path),
        ])
        assert res.exit_code == 0, res.output
        header, *rows = csv_path.read_text().strip().split("\n")
        columns = header.split(",")
        assert columns[7:13] == [
            "n_blocks", "max_block_dim", "n_orbits", "kept_rank", "n_pieces", "max_piece_dim"
        ]
        assert len(rows) == 6
        for row in rows:
            cells = dict(zip(columns, row.split(",")))
            m = 1 if cells["protocol"] == "std-pbt" else 2
            r = protocol_fidelity(cells["protocol"], 2, int(cells["N"]), m)
            assert [int(cells[c]) for c in columns[7:13]] == [
                r.n_blocks, r.max_block_dim, r.n_orbits, r.kept_rank, r.n_pieces, r.max_piece_dim
            ]
            assert r.kept_rank > 0
        # [X, A1..A3] at d=2: blocks 1, 4, 6, 4, 1 in 3 orbits
        std_pbtc_n3 = dict(zip(columns, rows[4].split(",")))
        assert (std_pbtc_n3["protocol"], std_pbtc_n3["N"]) == ("std-pbtc", "3")
        assert [std_pbtc_n3[c] for c in columns[7:10]] == ["5", "6", "3"]

    def test_csv_stable_except_runtime(self, runner, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            res = runner.invoke(main, [
                "sweep", "--protocols", "std-pbtc", "--N-range", "2:3",
                "--csv", str(p),
            ])
            assert res.exit_code == 0, res.output

        def strip_runtime(path):
            return [
                ",".join(line.split(",")[:-1])
                for line in path.read_text().strip().split("\n")
            ]

        assert strip_runtime(paths[0]) == strip_runtime(paths[1])

    def test_rows_sorted(self, runner, tmp_path):
        csv_path = tmp_path / "out.csv"
        res = runner.invoke(main, [
            "sweep", "--protocols", "std-pbtc,clone-mpbt", "--N-range", "2:3",
            "--csv", str(csv_path),
        ])
        assert res.exit_code == 0, res.output
        rows = [l.split(",")[:3] for l in csv_path.read_text().strip().split("\n")[1:]]
        keys = [(r[0], int(r[2])) for r in rows]
        assert keys == sorted(keys)

    def test_repeated_protocol_runs_once(self, runner, tmp_path):
        csv_path = tmp_path / "out.csv"
        res = runner.invoke(main, [
            "sweep", "--protocols", "std-pbtc, std-pbtc,std-pbtc", "--N-range", "2:3",
            "--csv", str(csv_path),
        ])
        assert res.exit_code == 0, res.output
        assert "wrote 2 rows" in res.output
        rows = [l.split(",")[:3] for l in csv_path.read_text().strip().split("\n")[1:]]
        assert [(r[0], int(r[2])) for r in rows] == [("std-pbtc", 2), ("std-pbtc", 3)]

    def test_unknown_protocol(self, runner, tmp_path):
        res = runner.invoke(main, [
            "sweep", "--protocols", "bogus", "--csv", str(tmp_path / "x.csv"),
        ])
        assert res.exit_code != 0
        assert "unknown protocol" in res.output


    @pytest.mark.parametrize("args,message", [
        (["--N-range", "5:3"], "is empty"),
        (["--protocols", ""], "no protocol"),
        (["--protocols", " , "], "no protocol"),
    ])
    def test_empty_grid_rejected(self, runner, tmp_path, args, message):
        paths = [tmp_path / "x.csv", tmp_path / "x.svg"]
        res = runner.invoke(
            main, ["sweep", "--csv", str(paths[0]), "--svg", str(paths[1])] + args
        )
        assert res.exit_code == 2, res.output
        assert message in res.output
        assert not any(p.exists() for p in paths)

    @pytest.mark.parametrize("args,message", [
        (["--M", "0"], "need 1 <= M <= N"),
        (["--d", "1"], "local dimensions must be >= 2"),
    ])
    def test_bad_point_reported(self, runner, tmp_path, args, message):
        csv_path = tmp_path / "x.csv"
        res = runner.invoke(main, ["sweep", "--N-range", "2:3", "--csv", str(csv_path)] + args)
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert f"Error: {message}" in res.output and "Traceback" not in res.output
        assert not csv_path.exists()

    def test_unwritable_csv_reported(self, runner, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        res = runner.invoke(main, ["sweep", "--N-range", "2:3", "--csv", str(path)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "Error: cannot write output" in res.output and "Traceback" not in res.output

    @pytest.mark.parametrize("spec", ["x", "3:", ":4", "2:y", "2.5"])
    def test_malformed_range_is_a_usage_error(self, runner, tmp_path, spec):
        csv_path = tmp_path / "x.csv"
        res = runner.invoke(main, ["sweep", "--N-range", spec, "--csv", str(csv_path)])
        assert res.exit_code == 2, res.output
        assert "neither lo:hi nor a single N" in res.output
        assert not csv_path.exists()

    def test_std_pbt_range_checked_at_m1(self, runner, tmp_path):
        # std-pbt always runs with M=1, so --M does not bound its N range
        csv_path = tmp_path / "x.csv"
        res = runner.invoke(main, [
            "sweep", "--protocols", "std-pbt", "--M", "2", "--N-range", "1:3",
            "--csv", str(csv_path),
        ])
        assert res.exit_code == 0, res.output
        rows = [line.split(",") for line in csv_path.read_text().strip().split("\n")[1:]]
        assert [(r[0], r[2], r[3]) for r in rows] == [("std-pbt", str(n), "1") for n in (1, 2, 3)]
        res = runner.invoke(main, [
            "sweep", "--protocols", "std-pbt,std-pbtc", "--M", "2", "--N-range", "1:3",
            "--csv", str(csv_path),
        ])
        assert res.exit_code == 2, res.output
        assert "N range must start at or above M=2" in res.output


class TestVerifyCommand:
    def test_passes_and_prints_lines(self, runner):
        res = runner.invoke(main, ["verify", "--N", "3", "--M", "2"])
        assert res.exit_code == 0, res.output
        assert res.output.count("PASS") >= 10
        assert "FAIL" not in res.output

    def test_json_report(self, runner, tmp_path):
        path = tmp_path / "report.json"
        res = runner.invoke(main, [
            "verify", "--N", "3", "--M", "2", "--json", str(path),
        ])
        assert res.exit_code == 0
        doc = json.loads(path.read_text())
        assert all("pass" in entry for entry in doc)

    def test_unwritable_json_reported(self, runner, tmp_path):
        path = tmp_path / "missing" / "report.json"
        res = runner.invoke(main, ["verify", "--N", "3", "--M", "2", "--json", str(path)])
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "Error: cannot write output" in res.output

    def test_injected_fault_fails(self, runner):
        res = runner.invoke(main, ["verify", "--N", "3", "--M", "2", "--inject-fault"])
        assert res.exit_code == 1
        assert "failing checks" in res.output

    def test_tol_option_is_gone(self, runner):
        # every threshold is fixed: an unknown option is a usage error
        res = runner.invoke(main, ["verify", "--N", "3", "--M", "2", "--tol", "1"])
        assert res.exit_code == 2
        assert "No such option" in res.output and "--tol" in res.output

    def test_broken_stirling_row_fails_without_traceback(self, runner, monkeypatch):
        original = verification.stirling_first
        monkeypatch.setattr(verification, "stirling_first", lambda n, k: original(n, k) + 1)
        res = runner.invoke(main, ["verify", "--N", "4", "--M", "2"])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "failing checks: h-disjoint-overlap-value, k-stirling-row-identity" in res.output

    def test_m_above_n_rejected(self, runner):
        res = runner.invoke(main, ["verify", "--N", "2", "--M", "3"])
        assert res.exit_code != 0


    @pytest.mark.parametrize("args,message", [
        (["--M", "0"], "need 1 <= M <= N"),
        (["--M", "2", "--d", "1"], "local dimensions must be >= 2"),
    ])
    def test_bad_params_reported(self, runner, args, message):
        res = runner.invoke(main, ["verify", "--N", "3"] + args)
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert f"Error: {message}" in res.output


class TestPovmDump:
    def test_dump(self, runner, tmp_path):
        path = tmp_path / "povm.json"
        res = runner.invoke(main, [
            "povm-dump", "--protocol", "std-pbtc", "--N", "3", "--M", "2",
            "--out", str(path),
        ])
        assert res.exit_code == 0, res.output
        doc = json.loads(path.read_text())
        assert doc["dimension"] == 16
        assert len(doc["outcomes"]) == 3

    def test_real_povm_round_trips_as_re_im_pairs(self, runner, tmp_path):
        # real entries still dump as [re, im] pairs, with im exactly 0.0
        path = tmp_path / "povm.json"
        res = runner.invoke(main, [
            "povm-dump", "--protocol", "std-pbtc", "--N", "3", "--M", "2",
            "--out", str(path),
        ])
        assert res.exit_code == 0, res.output
        doc = json.loads(path.read_text())
        povm = std_pbtc_povm(3, 2, 2)
        assert set(doc) == {"labels", "dims", "dimension", "outcomes", "completion_element"}
        assert doc["labels"] == ["X", "A1", "A2", "A3"]
        assert (doc["dims"], doc["dimension"]) == ([2, 2, 2, 2], 16)

        def matrix(pairs):
            assert all(len(pair) == 2 and pair[1] == 0.0 for pair in pairs)
            return np.array([re for re, _ in pairs]).reshape(16, 16)

        assert [o["key"] for o in doc["outcomes"]] == [
            {"kind": "port_set", "ports": list(I), "N": 3} for I in povm.outcomes
        ]
        for dumped, element in zip(doc["outcomes"], povm.outcomes.values()):
            assert np.array_equal(matrix(dumped["entries"]), element.entries)
        assert np.array_equal(matrix(doc["completion_element"]), povm.completion_element.entries)

    @pytest.mark.parametrize("args,message", [
        (["--N", "2", "--M", "3"], "need 1 <= M <= N"),
        (["--d", "1", "--N", "3", "--M", "2"], "local dimensions must be >= 2"),
    ])
    def test_bad_point_reported(self, runner, tmp_path, args, message):
        path = tmp_path / "povm.json"
        res = runner.invoke(main, ["povm-dump", "--protocol", "std-pbtc", "--out", str(path)] + args)
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert f"Error: {message}" in res.output and "Traceback" not in res.output
        assert not path.exists()

    def test_unwritable_output_reported(self, runner, tmp_path):
        path = tmp_path / "missing" / "povm.json"
        res = runner.invoke(main, [
            "povm-dump", "--protocol", "std-pbtc", "--N", "3", "--M", "2",
            "--out", str(path),
        ])
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "Error: cannot write output" in res.output


class TestDimCap:
    def test_default_cap_refuses_far_point(self, runner):
        res = runner.invoke(main, ["fidelity", "--protocol", "std-pbt", "--N", "40"])
        assert res.exit_code != 0
        assert "exceeds cap 8192" in res.output
