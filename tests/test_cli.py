import json
import os
import subprocess
import sys

import numpy as np
import pytest

from trackmerge.cli import load_gt_dir, main, parse_components, parse_weights
from trackmerge.cli import UsageError
from trackmerge.labelmap import LabelMap, write_frames
from trackmerge.mask import crop, patch
from trackmerge.synth import random_scenario

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(*argv):
    return main(list(argv))


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


class TestParsing:
    def test_equal(self):
        assert parse_weights("equal").as_array().tolist() == [0.2] * 5

    def test_five_values_normalized(self):
        w = parse_weights("0.2,0.2,0.2,0.2,0.201")
        assert abs(w.as_array().sum() - 1) < 1e-12

    def test_typo_rejected(self):
        with pytest.raises(UsageError):
            parse_weights("0.5,0.5,0.5,0.5,0.5")

    def test_wrong_count_rejected(self):
        with pytest.raises(UsageError):
            parse_weights("0.5,0.5")

    def test_components(self):
        assert parse_components("obj,maskprop") == (True, False, True, False, False)
        with pytest.raises(UsageError):
            parse_components("obj,warpiness")


# a flag out of its range, and the flag the usage error names
FLAG_RANGES = [
    ("search", ["--samples", "0"], "--samples"),
    ("search", ["--samples", "3"], "--top-k"),  # below the default --top-k of 11
    ("search", ["--samples", "3", "--top-k", "4"], "--top-k"),
    ("search", ["--top-k", "0"], "--top-k"),
    ("search", ["--score-min", "1.5"], "--score-min"),
    ("search", ["--nms-iou", "nan"], "--nms-iou"),
    ("filter", ["--score-min", "-0.1"], "--score-min"),
    ("filter", ["--nms-iou", "2"], "--nms-iou"),
    ("eval", ["--tolerance", "-1"], "--tolerance"),
    ("eval", ["--tolerance", "nan"], "--tolerance"),
]


class TestCounts:
    """--frames, --jobs, TRACKMERGE_JOBS and the other flags' ranges are
    usage errors: exit 2, one JSON line on stderr, nothing written."""

    def usage_message(self, capsys, *argv):
        assert run(*argv) == 2
        [line] = capsys.readouterr().err.strip().splitlines()
        err = json.loads(line)
        assert err["error"] == "usage"
        return err["message"]

    @pytest.mark.parametrize(
        "preset, frames",
        [("single", "0"), ("single", "-1"), ("random", "1"), ("random", "0"), ("random", "-3"),
         ("crossing", "3"), ("crossing", "10")],
    )
    def test_bad_frames(self, tmp_path, capsys, preset, frames):
        out = tmp_path / "data"
        argv = "synth", "--out", str(out), "--preset", preset, "--frames", frames
        assert "--frames" in self.usage_message(capsys, *argv)
        assert not out.exists()

    @pytest.mark.parametrize(
        "preset, flags, count",
        [("single", [], 5), ("single", ["--frames", "1"], 1), ("single", ["--frames", "3"], 3),
         ("random", ["--frames", "2"], 2), ("random", [], random_scenario(4).frame_count)],
    )
    def test_frames(self, tmp_path, preset, flags, count):
        data = tmp_path / "data"
        assert run("synth", "--out", str(data), "--preset", preset, "--seed", "4", *flags) == 0
        assert json.loads((data / "manifest.json").read_text())["frame_count"] == count

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one(self, tmp_path, capsys, monkeypatch, jobs):
        data, out = tmp_path / "data", tmp_path / "out"
        run("synth", "--out", str(data), "--preset", "single", "--seed", "0")
        merge = "merge", "--manifest", str(data / "manifest.json"), "--out", str(out)
        search = "search", "--data", str(data), "--out", str(out / "s.json"), "--samples", "2"
        for argv in (merge, search):
            assert "--jobs" in self.usage_message(capsys, *argv, "--jobs", jobs)
        monkeypatch.setenv("TRACKMERGE_JOBS", jobs)
        for argv in (merge, search):
            assert "TRACKMERGE_JOBS" in self.usage_message(capsys, *argv)
        assert not out.exists()

    @pytest.mark.parametrize("present", [True, False], ids=["inputs", "no-inputs"])
    @pytest.mark.parametrize("command, flags, flag", FLAG_RANGES,
                             ids=[" ".join([c, *f]) for c, f, _ in FLAG_RANGES])
    def test_flag_out_of_range(self, tmp_path, capsys, present, command, flags, flag):
        """Flag ranges are checked before any input is read, so a missing
        input is not reported in their place."""
        data, out = tmp_path / "data", tmp_path / "out"
        if present:
            run("synth", "--out", str(data), "--preset", "single", "--seed", "0")
        inputs = {
            "search": ["--data", str(data)],
            "filter": ["--manifest", str(data / "manifest.json")],
            "eval": ["--pred", str(data / "gt"), "--gt", str(data / "gt")],
        }[command]
        assert flag in self.usage_message(capsys, command, *inputs, "--out", str(out), *flags)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "search"])
    def test_negative_seed(self, tmp_path, capsys, command):
        data, out = tmp_path / "data", tmp_path / "out"
        run("synth", "--out", str(data), "--preset", "single", "--seed", "0")
        argv = {
            "synth": ["synth", "--out", str(out)],
            "search": ["search", "--data", str(data), "--out", str(out), "--samples", "2"],
        }[command]
        assert "--seed" in self.usage_message(capsys, *argv, "--seed", "-1")
        assert not out.exists()


class TestPipeline:
    def test_single_object_end_to_end(self, tmp_path):
        data = tmp_path / "data"
        assert run("synth", "--out", str(data), "--preset", "single", "--seed", "1") == 0
        assert (
            run(
                "filter",
                "--manifest", str(data / "manifest.json"),
                "--out", str(data / "filtered.json"),
            )
            == 0
        )
        merged = tmp_path / "merged"
        assert (
            run(
                "merge",
                "--manifest", str(data / "filtered.json"),
                "--out", str(merged),
                "--weights", "equal",
            )
            == 0
        )
        report = tmp_path / "report.json"
        assert (
            run(
                "eval",
                "--pred", str(merged / "single_1"),
                "--gt", str(data / "gt"),
                "--out", str(report),
            )
            == 0
        )
        res = json.loads(report.read_text())
        assert res["J&F"]["mean"] == 1.0

    def test_component_default_equivalence(self, tmp_path):
        data = tmp_path / "data"
        run("synth", "--out", str(data), "--preset", "random", "--seed", "5")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run("merge", "--manifest", str(data / "manifest.json"), "--out", str(out_a))
        run(
            "merge",
            "--manifest", str(data / "manifest.json"),
            "--out", str(out_b),
            "--components", "obj,reid,inv_reid,maskprop,inv_maskprop",
        )
        assert tree_bytes(out_a) == tree_bytes(out_b)

    def test_oracle_command(self, tmp_path):
        data = tmp_path / "data"
        run("synth", "--out", str(data), "--preset", "random", "--seed", "2")
        out = tmp_path / "oracle"
        assert (
            run(
                "oracle",
                "--manifest", str(data / "manifest.json"),
                "--gt", str(data / "gt"),
                "--out", str(out),
            )
            == 0
        )
        assert any(f.endswith(".pgm") for f in os.listdir(next(out.iterdir())))

    def test_search_then_ensemble(self, tmp_path):
        data = tmp_path / "data"
        run("synth", "--out", str(data), "--preset", "crossing", "--seed", "0")
        result = tmp_path / "search.json"
        assert (
            run(
                "search",
                "--data", str(data),
                "--out", str(result),
                "--samples", "12",
                "--seed", "7",
                "--top-k", "3",
            )
            == 0
        )
        merge_dirs = []
        for k in range(3):
            out = tmp_path / f"m{k}"
            assert (
                run(
                    "merge",
                    "--manifest", str(data / "manifest.json"),
                    "--out", str(out),
                    "--weights-file", str(result),
                    "--weights-index", str(k),
                )
                == 0
            )
            merge_dirs.append(str(out))
        voted = tmp_path / "voted"
        assert run("ensemble", "--inputs", *merge_dirs, "--out", str(voted)) == 0
        assert (voted / "crossing_0" / "00000.pgm").exists()

    def test_missing_manifest_is_runtime_error(self, tmp_path, capsys):
        code = run(
            "merge", "--manifest", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")
        )
        assert code == 1
        err = capsys.readouterr().err
        assert json.loads(err.strip().splitlines()[-1])["error"]

    def test_bad_weights_is_usage_error(self, tmp_path):
        data = tmp_path / "data"
        run("synth", "--out", str(data), "--preset", "single", "--seed", "0")
        code = run(
            "merge",
            "--manifest", str(data / "manifest.json"),
            "--out", str(tmp_path / "o"),
            "--weights", "0.9,0.9,0.9,0.9,0.9",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "weights", ["nan,0,0,0,1", "0,0,inf,0,0", "1e308,1e308,0,0,0", "-0.5,0.5,0.5,0.5,0"]
    )
    def test_non_finite_or_huge_weights_are_usage_errors(self, tmp_path, weights):
        """Exit 2 with stderr holding only the JSON line: no overflow
        warning, and no merge written with NaN scores."""
        data = tmp_path / "data"
        run("synth", "--out", str(data), "--preset", "single", "--seed", "0")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "trackmerge.cli", "merge", "--manifest",
             str(data / "manifest.json"), "--out", str(out), f"--weights={weights}"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "usage"
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            ({"best": {}}, "top_k"),
            ({"top_k": 5}, "top_k"),
            ({"top_k": [["0.2", 0.2, 0.2, 0.2, 0.2]]}, "top_k"),
            ([[0.2, 0.2, 0.2, 0.2, 0.2]], "top_k"),
            ({"top_k": [[float("nan"), 0, 0, 0, 1]]}, "[0, 1]"),
            ({"top_k": [[1e308, 1e308, 0, 0, 0]]}, "[0, 1]"),
            ({"top_k": [[0.5, 0.5, 0.5, 0, 0]]}, "sum to 1"),
            ({"top_k": [[0.5, 0.5]]}, "5 weights"),
            ({"top_k": [[10**400, 0, 0, 0, 0]]}, "top_k"),
        ],
    )
    def test_malformed_weights_file_is_data_error(self, tmp_path, capsys, content, message):
        data = tmp_path / "data"
        run("synth", "--out", str(data), "--preset", "single", "--seed", "0")
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps(content))  # NaN as the bare token json writes
        capsys.readouterr()
        out = tmp_path / "o"
        code = run("merge", "--manifest", str(data / "manifest.json"), "--out", str(out),
                   "--weights-file", str(weights))
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "TrackmergeError" and message in err["message"]
        assert not out.exists()

    def test_weights_file_nested_too_deep_is_data_error(self, tmp_path, capsys):
        weights = tmp_path / "weights.json"
        weights.write_text("[" * 200_000 + "]" * 200_000)
        out = tmp_path / "o"
        code = run("merge", "--manifest", str(tmp_path / "none.json"), "--out", str(out),
                   "--weights-file", str(weights))
        assert code == 1
        err = self._last_error(capsys)
        assert err["error"] == "TrackmergeError" and "not valid JSON" in err["message"]
        assert not out.exists()

    def test_weights_file_not_json_is_data_error(self, tmp_path, capsys):
        weights = tmp_path / "weights.json"
        weights.write_bytes(b"\xff{top_k")
        code = run("merge", "--manifest", str(tmp_path / "none.json"), "--out",
                   str(tmp_path / "o"), "--weights-file", str(weights))
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "TrackmergeError" and "not valid JSON" in err["message"]

    def test_object_id_above_255_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        run("synth", "--out", str(data), "--preset", "single", "--seed", "0")
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["ground_truth"][0]["object_id"] = 300
        bad = data / "bad.json"
        bad.write_text(json.dumps(manifest))
        code = run("merge", "--manifest", str(bad), "--out", str(tmp_path / "o"))
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ManifestError"
        assert err["message"].startswith("ground_truth[0]: object_id must lie in 1..255")

    def test_bad_jobs_environment_is_usage_error(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data"
        run("synth", "--out", str(data), "--preset", "single", "--seed", "0")
        monkeypatch.setenv("TRACKMERGE_JOBS", "x")
        code = run("merge", "--manifest", str(data / "manifest.json"), "--out", str(tmp_path / "o"))
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "usage" and "TRACKMERGE_JOBS" in err["message"]
        # an explicit --jobs does not consult the environment
        code = run(
            "merge",
            "--manifest", str(data / "manifest.json"),
            "--out", str(tmp_path / "o"),
            "--jobs", "1",
        )
        assert code == 0

    def test_merge_jobs_two_manifests_deterministic(self, tmp_path):
        manifests = []
        for preset, seed in (("crossing", "0"), ("random", "3")):
            data = tmp_path / preset
            run("synth", "--out", str(data), "--preset", preset, "--seed", seed)
            manifests.append(str(data / "manifest.json"))
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert run("merge", "--manifest", *manifests, "--out", str(serial), "--jobs", "1") == 0
        assert run("merge", "--manifest", *manifests, "--out", str(parallel), "--jobs", "2") == 0
        assert len(os.listdir(serial)) == 2
        assert tree_bytes(serial) == tree_bytes(parallel)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_merge_checks_every_manifest_before_writing(self, tmp_path, capsys, jobs):
        data = tmp_path / "data"
        run("synth", "--out", str(data), "--preset", "crossing", "--seed", "0")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"width": 3}))
        out = tmp_path / "o"
        code = run(
            "merge", "--manifest", str(data / "manifest.json"), str(bad),
            "--out", str(out), "--jobs", jobs,
        )
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "ManifestError"
        assert not out.exists() or not os.listdir(out)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_merge_checks_every_flow_before_writing(self, tmp_path, capsys, jobs):
        manifests = []
        for preset, seed in (("crossing", "1"), ("random", "3")):
            data = tmp_path / preset
            run("synth", "--out", str(data), "--preset", preset, "--seed", seed)
            manifests.append(data / "manifest.json")
        # the second manifest's last flow file loses its final byte
        last = manifests[1].parent / json.loads(manifests[1].read_text())["flows"][-1]
        last.write_bytes(last.read_bytes()[:-1])
        out = tmp_path / "o"
        code = run("merge", "--manifest", *map(str, manifests), "--out", str(out), "--jobs", jobs)
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "FlowError"
        assert not out.exists() or not os.listdir(out)

    def test_main_runs_alike_in_one_process_and_fresh(self, tmp_path):
        data = tmp_path / "data"
        run("synth", "--out", str(data), "--preset", "random", "--seed", "5")
        merges = [
            ["merge", "--manifest", str(data / "manifest.json"), "--components", "obj,maskprop"],
            ["merge", "--manifest", str(data / "manifest.json")],
        ]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        env.pop("TRACKMERGE_JOBS", None)
        for k, argv in enumerate(merges):
            assert run(*argv, "--out", str(tmp_path / f"same_{k}")) == 0
            subprocess.run(
                [sys.executable, "-m", "trackmerge.cli", *argv, "--out", str(tmp_path / f"fresh_{k}")],
                env=env, check=True, timeout=120,
            )
        fresh = [tree_bytes(tmp_path / f"fresh_{k}") for k in range(2)]
        assert fresh[0] != fresh[1]
        assert [tree_bytes(tmp_path / f"same_{k}") for k in range(2)] == fresh

    @pytest.mark.parametrize("samples", ["2", "7"])
    def test_search_reads_each_flow_file_once(self, tmp_path, monkeypatch, samples):
        from trackmerge import manifest as manifest_module

        dirs, flows = [], 0
        for preset, seed in (("crossing", "0"), ("single", "1")):
            data = tmp_path / preset
            run("synth", "--out", str(data), "--preset", preset, "--seed", seed)
            dirs.append(str(data))
            flows += json.loads((data / "manifest.json").read_text())["frame_count"] - 1
        loaded = []
        real = manifest_module.load_flo
        monkeypatch.setattr(
            manifest_module, "load_flo", lambda path: loaded.append(path) or real(path)
        )
        code = run(
            "search",
            "--data", *dirs,
            "--out", str(tmp_path / "search.json"),
            "--samples", samples,
            "--top-k", "1",
            "--jobs", "1",
        )
        assert code == 0
        assert len(loaded) == len(set(loaded)) == flows

    def test_malformed_manifest_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        run("synth", "--out", str(data), "--preset", "single", "--seed", "0")
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["width"] = "abc"
        bad = data / "bad.json"
        bad.write_text(json.dumps(manifest))
        code = run("merge", "--manifest", str(bad), "--out", str(tmp_path / "o"))
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ManifestError" and "width" in err["message"]

    @pytest.mark.parametrize(
        "path, field",
        [
            (("frames", 1, 0, "objectness"), "frames[1][0].objectness"),
            (("frames", 1, 0, "embedding", 0), "frames[1][0].embedding"),
            (("ground_truth", 0, "embedding", 2), "ground_truth[0].embedding"),
        ],
    )
    def test_number_too_large_for_a_float_is_data_error(self, tmp_path, capsys, path, field):
        data = tmp_path / "data"
        run("synth", "--out", str(data), "--preset", "single", "--seed", "0")
        manifest = json.loads((data / "manifest.json").read_text())
        *parents, key = path
        node = manifest
        for p in parents:
            node = node[p]
        node[key] = 10**400
        bad = data / "bad.json"
        bad.write_text(json.dumps(manifest))
        capsys.readouterr()
        out = tmp_path / "o"
        assert run("merge", "--manifest", str(bad), "--out", str(out)) == 1
        err = self._last_error(capsys)
        assert err["error"] == "ManifestError" and field in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "path, field",
        [
            (("ground_truth", 0, "object_id"), "object_id"),
            (("frame_count",), "frames"),
            (("frames", 1, 0, "rle", 0), "frames[1][0].rle"),
        ],
    )
    def test_overlong_integer_named_by_digit_count(self, tmp_path, capsys, path, field):
        data = tmp_path / "data"
        run("synth", "--out", str(data), "--preset", "single", "--seed", "0")
        manifest = json.loads((data / "manifest.json").read_text())
        *parents, key = path
        node = manifest
        for p in parents:
            node = node[p]
        node[key] = 10**400
        bad = data / "bad.json"
        bad.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run("merge", "--manifest", str(bad), "--out", str(tmp_path / "o")) == 1
        [line] = capsys.readouterr().err.strip().splitlines()
        assert len(line) < 300
        err = json.loads(line)
        assert err["error"] == "ManifestError" and field in err["message"]
        assert "<401-digit integer>" in err["message"]

    def test_manifest_nested_too_deep_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 200_000 + "]" * 200_000)
        out = tmp_path / "o"
        assert run("merge", "--manifest", str(bad), "--out", str(out)) == 1
        err = self._last_error(capsys)
        assert err["error"] == "ManifestError" and "not valid JSON" in err["message"]
        assert not out.exists()

    def test_manifest_not_utf8_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"video_id": "\xff"}')
        out = tmp_path / "o"
        assert run("merge", "--manifest", str(bad), "--out", str(out)) == 1
        err = self._last_error(capsys)
        assert err["error"] == "ManifestError" and "not valid JSON" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, field",
        [
            # run bounds are int64: a frame of 10**30 pixels has none
            (lambda m: m.update(width=10**30, height=1, frame_count=1,
                                ground_truth=[{**m["ground_truth"][0], "rle": [10**30]}]),
             "ground_truth[0].rle"),
            (lambda m: m["frames"][1][0].update(bbox=[5, 5, 2, 2]), "frames[1][0].bbox"),
            # an empty first-frame mask has no box
            (lambda m: m["ground_truth"][0].update(rle=[m["width"] * m["height"]]),
             "ground_truth[0].rle"),
        ],
        ids=["oversized_frame", "degenerate_bbox", "empty_gt_mask"],
    )
    def test_bad_mask_or_box_is_data_error(self, tmp_path, capsys, edit, field):
        data = tmp_path / "data"
        run("synth", "--out", str(data), "--preset", "single", "--seed", "0")
        manifest = json.loads((data / "manifest.json").read_text())
        edit(manifest)
        bad = data / "bad.json"
        bad.write_text(json.dumps(manifest))
        capsys.readouterr()
        out = tmp_path / "o"
        assert run("merge", "--manifest", str(bad), "--out", str(out)) == 1
        err = self._last_error(capsys)
        assert err["error"] == "ManifestError" and err["message"].startswith(field)
        assert not out.exists()

    def test_ensemble_rejects_videos_only_in_later_inputs(self, tmp_path, capsys):
        manifests = []
        for preset, seed in (("single", "0"), ("random", "3")):
            data = tmp_path / preset
            run("synth", "--out", str(data), "--preset", preset, "--seed", seed)
            manifests.append(str(data / "manifest.json"))
        one, both = tmp_path / "one", tmp_path / "both"
        assert run("merge", "--manifest", manifests[0], "--out", str(one)) == 0
        assert run("merge", "--manifest", *manifests, "--out", str(both)) == 0
        (extra,) = set(os.listdir(both)) - set(os.listdir(one))
        code = run("ensemble", "--inputs", str(one), str(both), "--out", str(tmp_path / "v"))
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "TrackmergeError" and extra in err["message"]

    def test_ensemble_checks_every_input_before_writing(self, tmp_path, capsys):
        manifests = {}
        for preset, seed in (("single", "0"), ("random", "3")):
            data = tmp_path / preset
            run("synth", "--out", str(data), "--preset", preset, "--seed", seed)
            manifests[preset] = str(data / "manifest.json")
        both, rand = tmp_path / "both", tmp_path / "rand"
        assert run("merge", "--manifest", *manifests.values(), "--out", str(both)) == 0
        assert run("merge", "--manifest", manifests["random"], "--out", str(rand)) == 0
        # the video missing from the later input sorts after the one they share
        (missing,) = set(os.listdir(both)) - set(os.listdir(rand))
        assert missing > os.listdir(rand)[0]
        voted = tmp_path / "v"
        assert run("ensemble", "--inputs", str(both), str(rand), "--out", str(voted)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "TrackmergeError" and missing in err["message"]
        assert not voted.exists()

    def _two_merges_of_two_videos(self, tmp_path):
        """Two merge trees of the same two videos; returns them and the
        video that sorts last."""
        manifests = []
        for preset, seed in (("single", "0"), ("random", "3")):
            data = tmp_path / preset
            run("synth", "--out", str(data), "--preset", preset, "--seed", seed)
            manifests.append(str(data / "manifest.json"))
        trees = [tmp_path / "m0", tmp_path / "m1"]
        assert run("merge", "--manifest", *manifests, "--out", str(trees[0])) == 0
        assert run("merge", "--manifest", *manifests, "--weights", "1,0,0,0,0",
                   "--out", str(trees[1])) == 0
        return trees, max(os.listdir(trees[0]))

    def test_ensemble_empty_later_video_writes_nothing(self, tmp_path, capsys):
        trees, last = self._two_merges_of_two_videos(tmp_path)
        for pgm in (trees[1] / last).glob("*.pgm"):
            pgm.unlink()
        voted = tmp_path / "v"
        assert run("ensemble", "--inputs", *map(str, trees), "--out", str(voted)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "TrackmergeError" and "no .pgm files" in err["message"]
        assert not voted.exists()

    def test_ensemble_frame_count_mismatch_writes_nothing(self, tmp_path, capsys):
        trees, last = self._two_merges_of_two_videos(tmp_path)
        max((trees[1] / last).glob("*.pgm")).unlink()
        voted = tmp_path / "v"
        assert run("ensemble", "--inputs", *map(str, trees), "--out", str(voted)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "TrackmergeError" and "frame counts" in err["message"]
        assert not voted.exists()

    def test_zero_size_pgm_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        run("synth", "--out", str(data), "--preset", "single", "--seed", "0")
        pred = tmp_path / "pred"
        pred.mkdir()
        (pred / "00000.pgm").write_bytes(b"P5\n0 0\n255\n")
        code = run("eval", "--pred", str(pred), "--gt", str(data / "gt"),
                   "--out", str(tmp_path / "r.json"))
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "TrackmergeError" and "dimensions" in err["message"]

    def test_pgm_header_number_too_long_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        run("synth", "--out", str(data), "--preset", "single", "--seed", "0")
        pred = tmp_path / "pred"
        pred.mkdir()
        (pred / "00000.pgm").write_bytes(b"P5\n" + b"9" * 5000 + b" 4\n255\n")
        capsys.readouterr()
        code = run("eval", "--pred", str(pred), "--gt", str(data / "gt"),
                   "--out", str(tmp_path / "r.json"))
        assert code == 1
        err = self._last_error(capsys)
        assert err["error"] == "TrackmergeError" and "00000.pgm" in err["message"]

    def test_pgm_size_of_too_many_digits_is_data_error(self, tmp_path, capsys):
        """A width and height of 3,000 digits each: the payload size they
        give has 6,000, more than str() converts."""
        data = tmp_path / "data"
        run("synth", "--out", str(data), "--preset", "single", "--seed", "0")
        pred = tmp_path / "pred"
        pred.mkdir()
        (pred / "00000.pgm").write_bytes(b"P5\n" + b"9" * 3000 + b" " + b"9" * 3000 + b"\n255\n")
        capsys.readouterr()
        code = run("eval", "--pred", str(pred), "--gt", str(data / "gt"),
                   "--out", str(tmp_path / "r.json"))
        assert code == 1
        [line] = capsys.readouterr().err.strip().splitlines()
        assert len(line) < 300
        err = json.loads(line)
        assert err["error"] == "TrackmergeError" and "<6000-digit integer>" in err["message"]

    def _last_error(self, capsys):
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        return json.loads(lines[0])

    def test_oracle_gt_of_another_size_is_data_error(self, tmp_path, capsys):
        from trackmerge.labelmap import LabelMap, read_frames, write_frames

        data = tmp_path / "data"
        run("synth", "--out", str(data), "--preset", "crossing", "--seed", "0")
        wider = [LabelMap(43, 26, np.pad(lm.labels, ((0, 0), (0, 3))))
                 for lm in read_frames(data / "gt")]
        write_frames(wider, tmp_path / "gt")
        out = tmp_path / "o"
        code = run("oracle", "--manifest", str(data / "manifest.json"),
                   "--gt", str(tmp_path / "gt"), "--out", str(out))
        assert code == 1
        err = self._last_error(capsys)
        assert err["error"] == "TrackmergeError" and "is 43x26, video is 40x26" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "oracle", "search"])
    def test_gt_pgms_of_mixed_sizes_are_data_error(self, tmp_path, capsys, command):
        from trackmerge.labelmap import LabelMap, write_pgm

        data = tmp_path / "data"
        run("synth", "--out", str(data), "--preset", "single", "--seed", "0")
        write_pgm(LabelMap.background(7, 5), data / "gt" / "00002.pgm")
        args = {
            "eval": ["--pred", str(data / "gt"), "--gt", str(data / "gt")],
            "oracle": ["--manifest", str(data / "manifest.json"), "--gt", str(data / "gt")],
            "search": ["--data", str(data), "--samples", "2", "--top-k", "1"],
        }[command]
        assert run(command, *args, "--out", str(tmp_path / "o")) == 1
        err = self._last_error(capsys)
        assert err["error"] == "TrackmergeError" and "00002.pgm: label map is 7x5" in err["message"]

    @pytest.mark.parametrize("video_id", ["../escaped", "a\0b", {"a": 1}])
    def test_video_id_outside_out_is_data_error(self, tmp_path, capsys, video_id):
        data = tmp_path / "data"
        run("synth", "--out", str(data), "--preset", "single", "--seed", "0")
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["video_id"] = video_id
        bad = data / "bad.json"
        bad.write_text(json.dumps(manifest))
        out = tmp_path / "work" / "o"
        code = run("merge", "--manifest", str(bad), "--out", str(out))
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ManifestError" and "video_id" in err["message"]
        assert not (tmp_path / "work").exists()


class TestReusedOutputDirectory:
    """A result directory written again holds the frames of the last write
    alone: a frame left from an earlier, longer write is removed, so eval
    and ensemble read what the command wrote."""

    def crossing(self, tmp_path):
        data = tmp_path / "data"
        assert run("synth", "--out", str(data), "--preset", "crossing", "--seed", "1") == 0
        return data

    def frames(self, directory):
        return sorted(f for f in os.listdir(directory) if f.endswith(".pgm"))

    def test_merge_again_removes_a_stale_frame(self, tmp_path):
        data = self.crossing(tmp_path)
        out = tmp_path / "o2"
        merge = "merge", "--manifest", str(data / "manifest.json"), "--out", str(out)
        assert run(*merge) == 0
        video = out / "crossing_1"
        written = self.frames(video)
        (video / f"{len(written):05d}.pgm").write_bytes((video / "00000.pgm").read_bytes())
        assert run(*merge) == 0
        assert self.frames(video) == written
        report = tmp_path / "eval.json"
        assert run("eval", "--pred", str(video), "--gt", str(data / "gt"),
                   "--out", str(report)) == 0

    def test_ensemble_again_removes_a_stale_frame(self, tmp_path):
        data = self.crossing(tmp_path)
        out = tmp_path / "o2"
        assert run("merge", "--manifest", str(data / "manifest.json"), "--out", str(out)) == 0
        voted = tmp_path / "voted"
        ensemble = "ensemble", "--inputs", str(out), str(out), "--out", str(voted)
        assert run(*ensemble) == 0
        written = self.frames(voted / "crossing_1")
        (voted / "crossing_1" / "00099.pgm").write_bytes((out / "crossing_1" / "00000.pgm").read_bytes())
        assert run(*ensemble) == 0
        assert self.frames(voted / "crossing_1") == written

    def test_synth_with_fewer_frames_leaves_no_stale_gt(self, tmp_path):
        data = tmp_path / "data"
        synth = "synth", "--out", str(data), "--preset", "single", "--seed", "1"
        assert run(*synth, "--frames", "7") == 0
        assert len(self.frames(data / "gt")) == 7
        assert run(*synth, "--frames", "4") == 0
        assert self.frames(data / "gt") == [f"{t:05d}.pgm" for t in range(4)]
        merged = tmp_path / "merged"
        assert run("merge", "--manifest", str(data / "manifest.json"), "--out", str(merged)) == 0
        assert run("eval", "--pred", str(merged / "single_1"), "--gt", str(data / "gt"),
                   "--out", str(tmp_path / "eval.json")) == 0

    def test_other_files_are_left_alone(self, tmp_path):
        data = self.crossing(tmp_path)
        out = tmp_path / "o2"
        merge = "merge", "--manifest", str(data / "manifest.json"), "--out", str(out)
        assert run(*merge) == 0
        keep = out / "crossing_1" / "notes.txt"
        keep.write_text("mine")
        assert run(*merge) == 0
        assert keep.read_text() == "mine"


class TestGlobCharactersInVideoId:
    """A video directory is named by its video_id, which may hold the
    pattern characters [, ], * and ?. Its frames read back all the same,
    and no other directory's frames with them: "clip*" is merged next to
    "clip_b", which the pattern would match."""

    @pytest.mark.parametrize(
        "video_ids", [("clip[1]",), ("clip*", "clip_b"), ("a?", "ab")],
        ids=["brackets", "star", "question_mark"],
    )
    def test_merge_eval_ensemble(self, tmp_path, video_ids):
        data = tmp_path / "data"
        assert run("synth", "--out", str(data), "--preset", "single", "--seed", "1") == 0
        manifest = json.loads((data / "manifest.json").read_text())
        manifests = []
        for k, video_id in enumerate(video_ids):
            manifests.append(str(data / f"renamed_{k}.json"))
            (data / f"renamed_{k}.json").write_text(json.dumps({**manifest, "video_id": video_id}))
        out, voted = tmp_path / "out", tmp_path / "voted"
        assert run("merge", "--manifest", *manifests, "--out", str(out)) == 0
        assert run("ensemble", "--inputs", str(out), str(out), "--out", str(voted)) == 0
        for video_id in video_ids:
            report = tmp_path / "report.json"
            assert run("eval", "--pred", str(out / video_id), "--gt", str(data / "gt"),
                       "--out", str(report)) == 0
            assert json.loads(report.read_text())["J&F"]["mean"] == 1.0
            written = tree_bytes(out / video_id)
            del written["selections.json"]
            assert tree_bytes(voted / video_id) == written


class TestLoadGtDir:
    """load_gt_dir encodes each object from its crop of the stacked frames;
    its masks are LabelMap.object_mask's, and the crops they keep are
    patch() of each object's dense grid."""

    def maps(self):
        rng = np.random.default_rng(4)
        maps = []
        for t in range(5):
            labels = np.zeros((13, 17), np.uint8)
            labels[2 + t : 6 + t, 1:5] = 3  # moves down
            labels[0:2, 15:17] = 255  # touches the top right corner
            if t != 2:  # absent from frame 2
                labels[rng.integers(0, 13, 6), rng.integers(0, 17, 6)] = 10  # scattered pixels
            labels[12, :] = 1 if t % 2 else 0  # the bottom row, every other frame
            maps.append(LabelMap(17, 13, labels))
        return maps

    def test_masks_and_crops(self, tmp_path):
        maps = self.maps()
        write_frames(maps, tmp_path)
        gt = load_gt_dir(str(tmp_path))
        assert len(gt) == len(maps)
        for lm, frame in zip(maps, gt):
            assert list(frame) == [1, 3, 10, 255]
            for j, m in frame.items():
                assert m == lm.object_mask(j)
                p, want = crop(m), patch(lm.labels == j)
                if want is None:
                    assert p is None and m.is_empty
                else:
                    assert (p.y0, p.x0) == (want.y0, want.x0)
                    assert np.array_equal(p.grid, want.grid)

    def test_no_objects(self, tmp_path, capsys):
        write_frames([LabelMap.background(4, 3)] * 2, tmp_path / "gt")
        pred = tmp_path / "pred"
        write_frames([LabelMap.background(4, 3)] * 2, pred)
        assert run("eval", "--pred", str(pred), "--gt", str(tmp_path / "gt"),
                   "--out", str(tmp_path / "e.json")) == 1
        assert "ground truth contains no objects" in capsys.readouterr().err
