"""CLI subcommands and the SVG plot backend."""

import csv
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from barricade import certify
from barricade import cli
from barricade import dsat
from barricade import lpgen
from barricade import network as nn
from barricade import plant
from barricade import simulate as sim
from barricade import svgplot
from barricade import symexpr as sx

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def hand_nn(tmp_path):
    net = nn.Network((nn.make_layer([[0.9, 1.6]], [0.0], "tanh"),
                      nn.make_layer([[1.5]], [0.0], "tanh")))
    path = tmp_path / "nn.json"
    nn.save(net, path)
    return str(path)


class TestTrainCmd:
    def test_writes_network_and_history(self, tmp_path):
        out = tmp_path / "nn.json"
        rc = cli.main(["train", "--neurons", "2", "--seed", "1",
                       "--iters", "2", "--popsize", "6",
                       "--out", str(out)])
        assert rc == 0
        net = nn.load(out)
        assert nn.parameter_count(net) == 4 * 2 + 1
        hist = tmp_path / "nn_history.csv"
        rows = list(csv.reader(open(hist)))
        assert rows[0] == ["iteration", "best_cost"]
        assert len(rows) == 3

    def test_same_seed_identical_files(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            cli.main(["train", "--neurons", "2", "--seed", "3",
                      "--iters", "2", "--popsize", "6", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_out_flag(self):
        assert cli.main(["train", "--neurons", "2"]) == 1


class TestVerifyCmd:
    def test_certifies_hand_controller(self, tmp_path, hand_nn, capsys):
        out = tmp_path / "certificate.json"
        rc = cli.main(["verify", "--nn", hand_nn, "--out", str(out)])
        assert rc == 0
        cert = certify.load_certificate(out)
        assert cert.level > 0
        assert ("(refuted by sampling %d, by dsat %d)"
                % (cert.refuted["sampling"], cert.refuted["dsat"])
                in capsys.readouterr().out)

    def test_zero_iteration_budget_inconclusive(self, tmp_path, hand_nn):
        rc = cli.main(["verify", "--nn", hand_nn, "--max-iters", "0",
                       "--out", str(tmp_path / "c.json")])
        assert rc == 2

    @pytest.mark.parametrize("flag", [
        "--max-iters=-1", "--gamma=0", "--gamma=-1e-6", "--gamma=inf",
        "--delta=0", "--delta=nan"])
    def test_invalid_setting_errors(self, tmp_path, hand_nn, capsys, flag):
        out = tmp_path / "c.json"
        rc = cli.main(["verify", "--nn", hand_nn, flag, "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_corrupt_network_errors(self, tmp_path):
        bad = tmp_path / "nn.json"
        bad.write_text("{broken")
        rc = cli.main(["verify", "--nn", str(bad),
                       "--out", str(tmp_path / "c.json")])
        assert rc == 1

    @pytest.mark.parametrize("layer", [
        {"weights": [[math.nan, 1.6]], "bias": [0.0]},
        {"weights": [[0.9, 1.6]], "bias": [10 ** 400]},
        {"weights": [[0.9, -math.inf]], "bias": [0.0]},
    ], ids=["weight_nan", "bias_huge_int", "weight_neg_inf"])
    def test_non_finite_network_number_one_error_line(self, tmp_path, capsys,
                                                      layer):
        bad = tmp_path / "nn.json"
        bad.write_text(json.dumps({"layers": [{**layer,
                                               "activation": "tanh"}]}))
        out = tmp_path / "c.json"
        rc = cli.main(["verify", "--nn", str(bad), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and not out.exists()
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_system_config_file(self, tmp_path, hand_nn):
        system = tmp_path / "system.json"
        system.write_text(json.dumps({
            "speed": 1.0, "path_angle": math.pi / 4,
            "controller": os.path.basename(hand_nn)}))
        out = tmp_path / "certificate.json"
        rc = cli.main(["verify", "--system", str(system), "--out", str(out)])
        assert rc == 0

    @pytest.mark.parametrize("system", [
        {"spec": {"x0": [[-0.1, 0.1], [-0.1, 0.1]]}},
        {"speed": "fast"},
        [{"speed": 1.0}],
        {"spec": {"x0": [["-0.1", 0.1], [-0.1, True]],
                  "safe_rect": [[-1.0, 1.0], [-1.5, 1.5]]}},
        {"gain": "2"},
        {"speed": "1.0"},
        {"path_angle": True},
        {"spec": {"x0": [[-0.1, 0.1], [-0.1, 0.1]],
                  "safe_rect": [[-1.0, 1.0], [-1.5, "1.5"]]}},
        {"gian": 0.9},
        {"spec": None},
        {"spec": {}},
        {"spec": {"x0": [[-0.1, 0.1], [-0.1, 0.1]],
                  "safe_rect": [[-1.0, 1.0], [-1.5, 1.5]], "u": []}},
        {"gain": math.nan},
        {"path_angle": math.inf},
        {"gain": 10 ** 400},
    ], ids=["spec_without_safe_rect", "speed_string", "top_level_list",
            "x0_string_and_bool", "gain_string", "speed_number_string",
            "path_angle_bool", "safe_rect_string", "unknown_key",
            "spec_null", "spec_empty", "spec_extra_key", "gain_nan",
            "path_angle_inf", "gain_huge_int"])
    def test_malformed_system_file_one_error_line(self, tmp_path, hand_nn,
                                                  capsys, system):
        if isinstance(system, dict):
            system = {**system, "controller": os.path.basename(hand_nn)}
        path = tmp_path / "system.json"
        path.write_text(json.dumps(system))
        out = tmp_path / "c.json"
        rc = cli.main(["verify", "--system", str(path), "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: malformed system file ")
        assert err.count("\n") == 1

    def test_nn_flag_is_relative_to_the_working_directory(
            self, tmp_path, hand_nn, monkeypatch):
        # --nn overrides the file's controller, which need not exist
        (tmp_path / "sub").mkdir()
        system = tmp_path / "sub" / "system.json"
        system.write_text(json.dumps({"controller": "missing.json"}))
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["verify", "--system", "sub/system.json",
                       "--nn", os.path.basename(hand_nn), "--max-iters", "0",
                       "--out", "c.json"])
        assert rc == 2

    def test_system_file_builds_the_loop_built_by_hand(self, tmp_path):
        # perfbench/run.py and the search fingerprint build the loop by
        # hand; the CLI builds it from the --system file through System
        nn10 = cli.bundled_controller_path(10)
        net = nn.load(nn10)
        default = certify.System.from_dict({}, net)
        assert default.field == plant.dubins_closed_loop(
            plant.DubinsParams(), net)
        assert default.field is default.field    # built once, then kept
        assert default.spec == certify.default_spec()
        stored = certify.load_certificate(DATA / "nn10_seed1_certificate.json")

        def decrease_text(field):
            # the formula query_decrease checks, without running the check
            return dsat.Formula(2, dsat.Constraint(
                certify.lie_derivative(stored.candidate, field), ">=",
                -stored.gamma)).to_text()

        recorded = json.loads((DATA / "nn10_seed1_certificate.json")
                              .read_text())["queries"]["decrease"]["formula"]
        assert decrease_text(default.field) == recorded
        system = tmp_path / "system.json"
        system.write_text(json.dumps({"speed": 2, "gain": 0.9,
                                      "controller": nn10}))
        args = cli.build_parser().parse_args(["verify", "--system",
                                              str(system)])
        by_hand = plant.dubins_closed_loop(plant.DubinsParams(speed=2.0),
                                           net, gain=0.9)
        assert decrease_text(cli._load_system(args).field) == \
            decrease_text(by_hand) != recorded


# A JSON integer past Python's 4,300-digit limit, which json.load refuses
HUGE = "9" * 5000


class TestInputFileErrors:
    """A number that no float holds, in each kind of input file: exit 1
    with one error line, under 200 characters, that names the file."""

    @staticmethod
    def _one_error_line(capsys, argv, name):
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == 1 and not os.path.exists("out.json")
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert name in err and len(err) < 200
        return err

    @staticmethod
    def _write(name, data, number):
        """data as JSON, with its string "HUGE" written as `number`."""
        Path(name).write_text(json.dumps(data).replace('"HUGE"', number))

    @pytest.mark.parametrize("number", [str(10 ** 400), HUGE],
                             ids=["int_400_digits", "int_5000_digits"])
    def test_network_file(self, tmp_path, capsys, monkeypatch, number):
        monkeypatch.chdir(tmp_path)
        self._write("net.json", {"layers": [{
            "weights": [["HUGE", 1.6]], "bias": [0.0],
            "activation": "tanh"}]}, number)
        err = self._one_error_line(
            capsys, ["verify", "--nn", "net.json", "--out", "out.json"],
            "net.json")
        assert err.startswith("error: network file net.json: ")

    @pytest.mark.parametrize("number", [str(10 ** 400), HUGE],
                             ids=["int_400_digits", "int_5000_digits"])
    def test_system_file(self, tmp_path, hand_nn, capsys, monkeypatch,
                         number):
        monkeypatch.chdir(tmp_path)
        self._write("sys.json", {"controller": os.path.basename(hand_nn),
                                 "gain": "HUGE"}, number)
        err = self._one_error_line(
            capsys, ["verify", "--system", "sys.json", "--out", "out.json"],
            "sys.json")
        assert err.startswith("error: malformed system file sys.json: ")

    def test_system_file_not_json(self, tmp_path, hand_nn, capsys,
                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("sys.json").write_text("{broken")
        err = self._one_error_line(
            capsys, ["verify", "--system", "sys.json", "--out", "out.json"],
            "sys.json")
        assert err.startswith("error: malformed system file sys.json: ")

    def test_certificate_file(self, tmp_path, hand_nn, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        data = json.loads((DATA / "nn10_seed1_certificate.json").read_text())
        data["level"] = "HUGE"
        self._write("cert.json", data, HUGE)
        err = self._one_error_line(
            capsys, ["plot", "--nn", hand_nn, "--certificate", "cert.json",
                     "--out", "out.json"], "cert.json")
        assert err.startswith("error: malformed certificate cert.json: ")


class TestPlotCmd:
    def test_svg_structure(self, tmp_path, hand_nn):
        cert_path = tmp_path / "certificate.json"
        assert cli.main(["verify", "--nn", hand_nn,
                         "--out", str(cert_path)]) == 0
        out = tmp_path / "plot.svg"
        rc = cli.main(["plot", "--nn", hand_nn, "--certificate",
                       str(cert_path), "--count", "4", "--out", str(out)])
        assert rc == 0
        svg = out.read_text()
        assert svg.count('class="levelset"') == 1
        assert 'class="init"' in svg and 'class="unsafe"' in svg
        assert svg.count('class="trace"') == 4
        assert svg.count('class="start"') == 4
        assert svg.count('class="end"') == 4

    def test_no_certificate_omits_levelset(self, tmp_path, hand_nn):
        out = tmp_path / "plot.svg"
        rc = cli.main(["plot", "--nn", hand_nn, "--count", "2",
                       "--out", str(out)])
        assert rc == 0
        assert "levelset" not in out.read_text()

    def test_byte_stable(self, tmp_path, hand_nn):
        docs = []
        for name in ("a.svg", "b.svg"):
            out = tmp_path / name
            cli.main(["plot", "--nn", hand_nn, "--count", "3",
                      "--seed", "9", "--out", str(out)])
            docs.append(out.read_bytes())
        assert docs[0] == docs[1]

    def test_level_set_points_on_level(self, tmp_path, hand_nn):
        cert_path = tmp_path / "certificate.json"
        cli.main(["verify", "--nn", hand_nn, "--out", str(cert_path)])
        cert = certify.load_certificate(cert_path)
        # the unit circle that render maps, as it does
        phis = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=True)
        pts = cert.candidate.level_points(
            cert.level, np.vstack([np.cos(phis), np.sin(phis)])).T
        for p in pts:
            assert abs(cert.candidate.value(p) - cert.level) < 1e-6

    @pytest.mark.parametrize("coeffs, level, exc, message", [
        ([1.0, 0.0, -1.0, 0.0, 0.0, 0.0], 0.5, certify.NotEllipsoidError,
         "not positive definite"),
        ([1.0, 0.0, 1.0, 0.0, 0.0, 0.0], 0.0, ValueError, "level set"),
    ], ids=["indefinite", "empty_level_set"])
    def test_no_ellipsoid_is_an_error(self, tmp_path, hand_nn, capsys,
                                      coeffs, level, exc, message):
        # P = diag(1, -1) has no level set to draw, nor has the identity
        # at its minimum 0: an error, not NaN coordinates
        cand = lpgen.candidate_from(coeffs, lpgen.QuadraticTemplate(2))
        spec = certify.default_spec()
        with pytest.raises(exc, match=message):
            svgplot.render(spec, (), cand, level)
        cert_path = tmp_path / "certificate.json"
        certify.Certificate(cand, level, 1e-6, 1e-3, {}, spec, "",
                            1).save(cert_path)
        out = tmp_path / "plot.svg"
        capsys.readouterr()
        rc = cli.main(["plot", "--nn", hand_nn, "--count", "1",
                       "--certificate", str(cert_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and not out.exists()
        assert err.startswith("error: ") and message in err

    def test_arity_mismatch_rejected(self, tmp_path, hand_nn):
        # certificate with a 1-d spec cannot be drawn over a 2-d system
        cert_path = tmp_path / "certificate.json"
        cli.main(["verify", "--nn", hand_nn, "--out", str(cert_path)])
        data = json.load(open(cert_path))
        data["spec"] = {"x0": [[-0.1, 0.1]], "safe_rect": [[-1.0, 1.0]]}
        data["generator"]["q_vector"] = [0.0]
        data["generator"]["p_matrix"] = [[1.0]]
        # a consistent 1-d generator, so that loading succeeds
        one = lpgen.candidate_from([1.0, 0.0, data["generator"]["c"]],
                                   lpgen.QuadraticTemplate(1))
        data["generator"]["expr"] = sx.to_sexpr(one.expr)
        data["generator"]["grad"] = [sx.to_sexpr(one.grad[0])]
        cert_path.write_text(json.dumps(data))
        rc = cli.main(["plot", "--nn", hand_nn,
                       "--certificate", str(cert_path),
                       "--out", str(tmp_path / "p.svg")])
        assert rc == 1

    @pytest.mark.parametrize("edit", [
        lambda d: d.pop("generator"),
        lambda d: d["generator"].update(expr="(var 0"),
    ], ids=["missing_field", "unclosed_form"])
    def test_malformed_certificate_one_error_line(self, tmp_path, hand_nn,
                                                  capsys, edit):
        cert_path = tmp_path / "certificate.json"
        cli.main(["verify", "--nn", hand_nn, "--out", str(cert_path)])
        data = json.load(open(cert_path))
        edit(data)
        cert_path.write_text(json.dumps(data))
        capsys.readouterr()
        rc = cli.main(["plot", "--nn", hand_nn, "--count", "1",
                       "--certificate", str(cert_path),
                       "--out", str(tmp_path / "p.svg")])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_diverging_traces_one_error_line(self, tmp_path, hand_nn,
                                             capsys, monkeypatch):
        def diverged(*args):
            raise sim.SimulationDivergence("state exceeded 1e+06 at t=0.3")

        monkeypatch.setattr(sim, "simulate_batch", diverged)
        rc = cli.main(["plot", "--nn", hand_nn, "--count", "2",
                       "--out", str(tmp_path / "p.svg")])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not (tmp_path / "p.svg").exists()

    def test_traces_drawn_at_plot_step(self, tmp_path, hand_nn, monkeypatch):
        steps = []
        simulate_batch = sim.simulate_batch

        def recorded(field, starts, duration, step):
            steps.append(step)
            return simulate_batch(field, starts, duration, step)

        monkeypatch.setattr(sim, "simulate_batch", recorded)
        assert cli.main(["plot", "--nn", hand_nn, "--count", "2",
                         "--out", str(tmp_path / "p.svg")]) == 0
        assert steps == [cli.PLOT_STEP]


class TestBenchCmd:
    def test_csv_structure_single_size(self, tmp_path, hand_nn):
        # run the sweep against a local controller directory so this works
        # with a fast, small network
        ctrl_dir = tmp_path / "ctrl"
        ctrl_dir.mkdir()
        net = nn.load(hand_nn)
        nn.save(net, ctrl_dir / "nn1.json")
        out = tmp_path / "bench.csv"
        rc = cli.main(["bench", "--neurons", "1", "--trials", "2",
                       "--controller-dir", str(ctrl_dir), "--out", str(out)])
        assert rc == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["neurons", "avg_iterations", "avg_query_time_s",
                           "avg_total_time_s"]
        assert len(rows[0]) == 4
        assert len(rows) == 2
        assert rows[1][0] == "1"

    def test_missing_size_recorded_not_fatal(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = cli.main(["bench", "--neurons", "10,99999", "--trials", "1",
                       "--controller-dir", str(tmp_path), "--out", str(out)])
        assert rc == 0
        rows = list(csv.reader(open(out)))
        assert len(rows) == 2 and rows[1][0] == "10"

    def test_no_row_exits_2(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = cli.main(["bench", "--neurons", "99999", "--trials", "1",
                       "--controller-dir", str(tmp_path), "--out", str(out)])
        assert rc == 2
        rows = list(csv.reader(open(out)))
        assert len(rows) == 1  # header only


class TestParsing:
    def test_bad_flag_usage_error(self):
        assert cli.main(["verify", "--gamma", "not-a-number"]) == 1

    def test_unknown_command(self):
        assert cli.main(["frobnicate"]) == 1
