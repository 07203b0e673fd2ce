import json
import os
import subprocess
import sys

import numpy as np
import pytest

from trackmerge.cli import main, parse_components, parse_weights
from trackmerge.cli import UsageError

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(*argv):
    return main(list(argv))


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
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
        assert err["error"] == "ManifestError" and "object_id" in err["message"]

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
