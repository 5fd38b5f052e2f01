"""End-to-end exercises of every subcommand through run()."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xrprobe
from xrprobe import cli, metrics
from xrprobe.audio_beacon import (
    MAX_SAMPLE_RATE,
    PcmBuffer,
    ToneSchedule,
    write_wav,
    write_wav_manifest,
)
from xrprobe.cli import run
from xrprobe.exporter import read_log, write_log
from xrprobe.scenario import MAX_DEVICE_FRAMES
from xrprobe.video_beacon import MAX_FRAME_SIDE, PixelBuffer


def write_scenario(path, duration_s=20.0, seed=7):
    doc = {
        "name": "cli-test",
        "duration_s": duration_s,
        "seed": seed,
        "presenter": "u1",
        "viewers": ["u2"],
        "join_times_s": [3.0],
        "uplink": {"name": "lan-up", "base_one_way_ms": 40.0,
                   "jitter": {"kind": "gaussian", "sigma_ms": 2.0}},
        "downlink": {"name": "lan-down", "base_one_way_ms": 40.0,
                     "jitter": {"kind": "gaussian", "sigma_ms": 2.0}},
    }
    path.write_text(json.dumps(doc))
    return path


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["simulate", "--frobnicate"]) == 2
        capsys.readouterr()

    def test_no_subcommand_is_usage_error(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv, flag", [
        (["gen-video", "--interval-ms", "0"], "--interval-ms"),
        (["gen-video", "--interval-ms", "-10"], "--interval-ms"),
        (["gen-video", "--duration-s", "inf"], "--duration-s"),
        (["gen-video", "--duration-s", "-1"], "--duration-s"),
        (["gen-audio", "--duration-s", "inf"], "--duration-s"),
        (["gen-audio", "--duration-s", "-1"], "--duration-s"),
        (["serve", "--log", "x", "--serve-port", "70000"], "--serve-port"),
        (["serve", "--log", "x", "--serve-port", "-1"], "--serve-port"),
        (["gen-video", "--start-ts", "-5"], "--start-ts"),
        (["gen-audio", "--start-ts", "-5"], "--start-ts"),
        (["gen-audio", "--start-ts", "1.5"], "--start-ts"),
        (["gen-audio", "--rate", "0"], "--rate"),
        (["gen-audio", "--rate", "8640"], "--rate"),
        (["gen-video", "--scale", "0"], "--scale"),
        (["gen-video", "--scale", "-2"], "--scale"),
        (["analyze", "--log", "x", "--epoch-ms", "0"], "--epoch-ms"),
        (["analyze", "--log", "x", "--epoch-ms", "-1000"], "--epoch-ms"),
        (["gen-video", "--start-ts", str(2**64)], "--start-ts"),
        (["gen-audio", "--start-ts", str(2**64)], "--start-ts"),
        (["gen-video", "--fps", "0"], "--fps"),
        (["gen-video", "--fps", "-5"], "--fps"),
        (["gen-video", "--start-ts", str(2**64 - 1), "--duration-s", "0.1"], "--start-ts"),
        (["gen-audio", "--start-ts", str(2**64 - 1), "--duration-s", "1"], "--start-ts"),
        (["gen-audio", "--rate", str(MAX_SAMPLE_RATE + 1)], "--rate"),
    ])
    def test_out_of_range_flag_is_usage_error(self, tmp_path, capsys, argv, flag):
        if argv[0] != "serve":
            out = tmp_path / ("a.wav" if argv[0] == "gen-audio" else "frames")
            argv = [argv[0], "--out", str(out), *argv[1:]]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    # nothing is drawn: a value that passed the checks would reach the
    # patched rasterize and fail the test instead of filling memory
    @pytest.mark.parametrize("extra, flag, message", [
        (["--fps", "1000000", "--duration-s", "1000000"], "--duration-s/--fps",
         f"expected at most {MAX_DEVICE_FRAMES} frames (duration x fps), got 1e+12"),
        (["--fps", "1000", "--duration-s", "1000.001"], "--duration-s/--fps",
         f"expected at most {MAX_DEVICE_FRAMES} frames (duration x fps), got 1000001"),
        (["--fps", "30", "--duration-s", "1e308"], "--duration-s/--fps", "got inf"),
        (["--scale", str(MAX_FRAME_SIDE // 29 + 1)], "--scale",
         f"expected an integer in 1..{MAX_FRAME_SIDE // 29} (frame side <= "
         f"{MAX_FRAME_SIDE} px), got '{MAX_FRAME_SIDE // 29 + 1}'"),
        (["--scale", str(10**12)], "--scale", f"got '{10**12}'"),
    ])
    def test_gen_video_size_caps_before_drawing(self, tmp_path, capsys, monkeypatch,
                                                extra, flag, message):
        def rasterize(*args, **kwargs):
            raise AssertionError("rasterized a frame over the cap")

        monkeypatch.setattr(cli, "rasterize", rasterize)
        assert run(["gen-video", "--out", str(tmp_path / "frames"), *extra]) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: " in err and message in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_gen_video_largest_scale_accepted(self, tmp_path, capsys, monkeypatch):
        scales = []

        def rasterize(grid, scale):
            scales.append(scale)
            return PixelBuffer(pixels=np.zeros((1, 1), dtype=np.uint8))

        monkeypatch.setattr(cli, "rasterize", rasterize)
        top = MAX_FRAME_SIDE // 29  # 21 modules plus a 4-module quiet zone a side
        argv = ["gen-video", "--out", str(tmp_path / "frames"), "--fps", "1",
                "--duration-s", "1", "--scale", str(top)]
        assert run(argv) == 0
        capsys.readouterr()
        assert scales == [top] and (21 + 2 * 4) * top <= MAX_FRAME_SIDE

    # nothing is synthesized: a value that passed the checks would reach the
    # patched synthesize and fail the test instead of filling memory
    @pytest.mark.parametrize("extra, got", [
        (["--duration-s", "1e12"], "got 1e+13"),
        (["--duration-s", "1e300"], "got 1e+301"),
        (["--duration-s", "1e300", "--start-ts", str(2**64 - 1)], "got 1e+301"),
        (["--duration-s", "1e308"], "got inf"),
        (["--duration-s", "100000.06"], "got 1000001"),
    ])
    def test_gen_audio_pulse_cap_before_synthesis(self, tmp_path, capsys, monkeypatch,
                                                  extra, got):
        def synthesize(*args, **kwargs):
            raise AssertionError("synthesized audio over the cap")

        monkeypatch.setattr(cli, "synthesize", synthesize)
        assert run(["gen-audio", "--out", str(tmp_path / "a.wav"), *extra]) == 2
        err = capsys.readouterr().err
        assert err == (f"xrprobe gen-audio: argument --duration-s: expected at most "
                       f"{MAX_DEVICE_FRAMES} pulses (100 ms each), {got}\n")
        assert list(tmp_path.iterdir()) == []

    def test_gen_audio_pulse_cap_accepted(self, tmp_path, capsys, monkeypatch):
        slots = []

        def synthesize(schedule, start_slot, n_slots, rate):
            slots.append(n_slots)
            return PcmBuffer(sample_rate=rate, samples=np.zeros(1, dtype=np.int16))

        monkeypatch.setattr(cli, "synthesize", synthesize)
        argv = ["gen-audio", "--out", str(tmp_path / "a.wav"), "--duration-s", "100000.04"]
        assert run(argv) == 0
        capsys.readouterr()
        assert slots == [MAX_DEVICE_FRAMES]

    @pytest.mark.parametrize("command, detect, span", [
        # three frames at 30 fps, the last 67 ms after the first
        ("gen-video", "detect-video", 67),
        # one 100 ms slot, 4,800 samples, the last stamped 100 ms after the first
        ("gen-audio", "detect-audio", 100),
    ])
    def test_start_ts_range_ends_at_the_top_timestamp(self, tmp_path, capsys,
                                                      command, detect, span):
        out = tmp_path / ("a.wav" if command == "gen-audio" else "frames")
        top = 2**64 - 1 - span
        argv = [command, "--out", str(out), "--duration-s", "0.1", "--start-ts"]
        assert run([*argv, str(top + 1)]) == 2
        assert f"expected at most {top} " in capsys.readouterr().err
        assert run([*argv, str(top)]) == 0
        assert run([detect, str(out), "--out", str(tmp_path / "log.jsonl")]) == 0
        capsys.readouterr()
        records = list(read_log(tmp_path / "log.jsonl"))
        assert records
        assert all(top <= r.emission_ts <= r.playout_ts <= 2**64 - 1 for r in records)

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        rc = run(["simulate", "--scenario", str(tmp_path / "nope.json"),
                  "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "nope.json" in capsys.readouterr().err

    def test_invalid_json_scenario_names_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"profile": "wifi",')
        rc = run(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == (f"xrprobe simulate: <root>: {bad}: invalid JSON: "
                                "Expecting property name enclosed in double quotes: "
                                "line 1 column 20 (char 19)\n")

    def test_bad_scenario_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"duration_s": -3}))
        rc = run(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1
        capsys.readouterr()

    def test_overflowing_frame_period_names_fps(self, tmp_path, capsys):
        sc = write_scenario(tmp_path / "sc.json")
        doc = json.loads(sc.read_text())
        sc.write_text(json.dumps({**doc, "fps": 1e-310}))
        rc = run(["simulate", "--scenario", str(sc), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "xrprobe simulate: fps: frame period 1000 / fps overflows, got 1e-310\n")

    @pytest.mark.parametrize("physical", [[], ["--physical"]], ids=["symbolic", "physical"])
    def test_zero_display_quantum_names_the_field(self, tmp_path, capsys, physical):
        sc = write_scenario(tmp_path / "sc.json")
        doc = json.loads(sc.read_text())
        sc.write_text(json.dumps({**doc, "pipeline": {"display_quantum_ms": 0}}))
        rc = run(["simulate", "--scenario", str(sc), "--out", str(tmp_path / "out"), *physical])
        assert rc == 1
        assert capsys.readouterr().err == (
            "xrprobe simulate: pipeline.display_quantum_ms: must be positive\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("physical", [[], ["--physical"]])
    @pytest.mark.parametrize("start, last", [(-5000, -3000), (2**64 - 1000, 2**64 + 1000),
                                             (2**43 - 1000, 2**43 + 1000)])
    def test_session_outside_the_timestamp_range_names_start_epoch_ms(
            self, tmp_path, capsys, physical, start, last):
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"profile": "ethernet", "duration_s": 2, "viewers": ["u2"],
                                  "join_times_s": [1], "start_epoch_ms": start, "seed": 42}))
        rc = run(["simulate", "--scenario", str(sc), "--out", str(tmp_path / "out"), *physical])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"xrprobe simulate: start_epoch_ms: the session runs from {start} to {last} ms, "
            "outside 0..2**43-1\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("physical", [[], ["--physical"]], ids=["symbolic", "physical"])
    def test_clock_readings_outside_the_timestamp_range_name_start_epoch_ms(
            self, tmp_path, capsys, physical):
        """A 50 ms clock offset on a session that starts at 0 reads below 0 on
        some seeds: those runs write nothing and exit 1 naming start_epoch_ms,
        the rest write no timestamp below 0."""
        exits = []
        for seed in range(20):
            sc = tmp_path / f"sc{seed}.json"
            sc.write_text(json.dumps({"profile": "ethernet", "duration_s": 2, "viewers": ["u2"],
                                      "join_times_s": [1], "start_epoch_ms": 0, "seed": seed,
                                      "clocks": {"initial_offset_sigma_ms": 50}}))
            out = tmp_path / f"out{seed}"
            exits.append(run(["simulate", "--scenario", str(sc), "--out", str(out), *physical]))
            err = capsys.readouterr().err
            if exits[-1] == 0:
                for log in out.glob("*.jsonl"):
                    assert min(min(r.emission_ts, r.playout_ts) for r in read_log(log)) >= 0
            else:
                assert exits[-1] == 1 and not any(out.iterdir())
                assert err.count("\n") == 1
                assert err.startswith("xrprobe simulate: start_epoch_ms: the clock of ")
        assert set(exits) == {0, 1}

    @pytest.mark.parametrize("physical", [[], ["--physical"]], ids=["symbolic", "physical"])
    def test_clock_reading_past_the_top_timestamp_names_start_epoch_ms(
            self, tmp_path, capsys, physical):
        # the session ends at 2**43-2 ms, but its clocks' readings round past 2**43-1
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"profile": "ethernet", "duration_s": 2, "viewers": ["u2"],
                                  "join_times_s": [1], "start_epoch_ms": 2**43 - 2002, "seed": 3,
                                  "clocks": {"initial_offset_sigma_ms": 50}}))
        rc = run(["simulate", "--scenario", str(sc), "--out", str(tmp_path / "out"), *physical])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("xrprobe simulate: start_epoch_ms: the clock of ")
        assert not any((tmp_path / "out").iterdir())


class TestVideoPipeline:
    def test_gen_then_detect(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        assert run(["gen-video", "--out", str(frames), "--fps", "10",
                    "--duration-s", "1.0", "--start-ts", "5000",
                    "--device-id", "hmd"]) == 0
        log = tmp_path / "video.jsonl"
        assert run(["detect-video", str(frames), "--out", str(log)]) == 0
        capsys.readouterr()
        recs = list(read_log(log))
        assert len(recs) == 10
        assert all(r.media == "video" and r.device == "hmd" for r in recs)
        assert all(0 <= r.playout_ts - r.emission_ts < 10 for r in recs)

    def test_detect_to_stdout(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        run(["gen-video", "--out", str(frames), "--fps", "5", "--duration-s", "0.4"])
        capsys.readouterr()
        assert run(["detect-video", str(frames)]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 2
        assert json.loads(out.splitlines()[0])["media"] == "video"
        # stdout and --out are the same bytes
        assert run(["detect-video", str(frames), "--out", str(tmp_path / "log.jsonl")]) == 0
        assert (tmp_path / "log.jsonl").read_text() == out


    @pytest.mark.parametrize("damage, message", [
        (lambda d: (d / "frames.pgm").unlink(), "frame 0: no such file"),
        (lambda d: _truncate(d / "frames.pgm", 10), "frame 1: truncated pixel data"),
        (lambda d: _edit_manifest(d, fps=0), "fps: must be positive"),
        (lambda d: _edit_manifest(d, fps=1e-310), "fps: the last frame's offset overflows"),
        (lambda d: _edit_manifest(d, fps=1e-300), "fps: the last frame's offset overflows"),
        (lambda d: _edit_manifest(d, device_id=None), "device_id: missing"),
        (lambda d: _edit_manifest(d, frame_count=-2), "frame_count: must be >= 0"),
    ])
    def test_bad_sequence_is_one_line_error(self, tmp_path, capsys, damage, message):
        frames = tmp_path / "frames"
        run(["gen-video", "--out", str(frames), "--fps", "5", "--duration-s", "0.4"])
        capsys.readouterr()
        damage(frames)
        assert run(["detect-video", str(frames)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert message in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("blob", [b'{"device_id": ', b"nope", b""])
    def test_invalid_json_manifest_names_file(self, tmp_path, capsys, blob):
        frames = tmp_path / "frames"
        run(["gen-video", "--out", str(frames), "--fps", "5", "--duration-s", "0.4"])
        (frames / "manifest.json").write_bytes(blob)
        capsys.readouterr()
        assert run(["detect-video", str(frames)]) == 1
        captured = capsys.readouterr()
        manifest = frames / "manifest.json"
        assert captured.err.startswith(f"xrprobe detect-video: <root>: {manifest}: invalid JSON: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


def _truncate(path, n):
    path.write_bytes(path.read_bytes()[:-n])


def _edit_manifest(directory, **change):
    path = directory / "manifest.json"
    doc = json.loads(path.read_text())
    for key, value in change.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    path.write_text(json.dumps(doc))


class TestAudioPipeline:
    def test_gen_then_detect(self, tmp_path, capsys):
        wav = tmp_path / "tone.wav"
        assert run(["gen-audio", "--out", str(wav), "--duration-s", "1.0",
                    "--start-ts", "100", "--device-id", "spk"]) == 0
        log = tmp_path / "audio.jsonl"
        assert run(["detect-audio", str(wav), "--out", str(log)]) == 0
        capsys.readouterr()
        recs = list(read_log(log))
        assert len(recs) == 10
        assert all(r.media == "audio" and r.device == "spk" for r in recs)
        assert run(["detect-audio", str(wav)]) == 0
        assert capsys.readouterr().out == log.read_text()

    def test_detect_audio_prints_its_tally(self, tmp_path, capsys):
        # 0.5 s of 500 Hz, more than delta/2 below the lowest tone: each of its
        # 43 windows is an unknown tone (gen-audio writes the sidecar)
        wav = tmp_path / "tone.wav"
        run(["gen-audio", "--out", str(wav), "--duration-s", "0.5"])
        t = np.arange(24_000) / 48_000
        hum = np.round(16_000 * np.sin(2 * np.pi * 500.0 * t)).astype(np.int16)
        write_wav(wav, PcmBuffer(48_000, hum))
        capsys.readouterr()
        assert run(["detect-audio", str(wav)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "0 pulses detected, 43 unknown_tone\n"

    def test_bad_sidecar_is_one_line_error(self, tmp_path, capsys):
        wav = tmp_path / "tone.wav"
        run(["gen-audio", "--out", str(wav), "--duration-s", "0.5"])
        sidecar = tmp_path / "tone.wav.json"
        doc = json.loads(sidecar.read_text())
        del doc["device_id"]
        sidecar.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["detect-audio", str(wav)]) == 1
        err = capsys.readouterr().err
        assert err == "xrprobe detect-audio: device_id: missing\n"

    # the sidecar's fields are read in its key order, so with both times bad
    # the schedule's epoch is named first
    @pytest.mark.parametrize("change, message", [
        ({"stream_start_ts": -100000},
         "stream_start_ts: the samples play out from -100000 to -99500 ms, outside 0..2**64-1"),
        ({"stream_start_ts": 2**64 - 500},
         "stream_start_ts: the samples play out from 18446744073709551116 to "
         "18446744073709551616 ms, outside 0..2**64-1"),
        ({"stream_start_ts": -100000, "epoch_ts": -100000},
         "schedule.epoch_ts: must be in 0..2**64-1, got -100000"),
    ])
    def test_sidecar_times_outside_64_bits_are_one_line_error(self, tmp_path, capsys,
                                                               change, message):
        wav = tmp_path / "tone.wav"
        run(["gen-audio", "--out", str(wav), "--duration-s", "0.5"])
        sidecar = tmp_path / "tone.wav.json"
        doc = json.loads(sidecar.read_text())
        for key, value in change.items():
            (doc["schedule"] if key == "epoch_ts" else doc)[key] = value
        sidecar.write_text(json.dumps(doc))
        log = tmp_path / "audio.jsonl"
        capsys.readouterr()
        assert run(["detect-audio", str(wav), "--out", str(log)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"xrprobe detect-audio: {message}\n"
        assert captured.out == ""
        assert not log.exists()

    @pytest.mark.parametrize("blob", [b'{"device_id": ', b"nope", b"\xff\xfe\xfd"])
    def test_invalid_json_sidecar_names_file(self, tmp_path, capsys, blob):
        wav = tmp_path / "tone.wav"
        run(["gen-audio", "--out", str(wav), "--duration-s", "0.5"])
        sidecar = tmp_path / "tone.wav.json"
        sidecar.write_bytes(blob)
        capsys.readouterr()
        assert run(["detect-audio", str(wav)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"xrprobe detect-audio: <root>: {sidecar}: invalid JSON: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_rate_below_the_top_tone_is_one_line_error(self, tmp_path, capsys):
        wav = tmp_path / "low.wav"
        write_wav(wav, PcmBuffer(sample_rate=8000, samples=np.zeros(8000, dtype=np.int16)))
        write_wav_manifest(wav, "spk", ToneSchedule(), stream_start_ts=0)
        assert run(["detect-audio", str(wav)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"xrprobe detect-audio: {wav}: the 4320 Hz top tone needs a "
                                "sample rate above 8640 Hz, got 8000 Hz\n")
        assert captured.out == ""

    @pytest.mark.parametrize("fault, message", [
        ("cut_to_30_bytes", "truncated WAV file"),
        ("bad_riff_chunks", "malformed WAV file (fmt chunk and/or data chunk missing)"),
        ("short_data_chunk", "data chunk declares 96000 frames but holds 24000"),
    ])
    def test_damaged_wav_is_one_line_error(self, tmp_path, capsys, fault, message):
        wav = tmp_path / "tone.wav"
        run(["gen-audio", "--out", str(wav), "--duration-s", "0.5"])
        blob = wav.read_bytes()
        if fault == "cut_to_30_bytes":
            blob = blob[:30]
        elif fault == "bad_riff_chunks":
            blob = b"RIFF\xff\xff\xff\xffWAVEjunk"
        else:  # the data chunk declares four times the bytes it holds
            at = blob.index(b"data") + 4
            declared = int.from_bytes(blob[at:at + 4], "little")
            blob = blob[:at] + (4 * declared).to_bytes(4, "little") + blob[at + 4:]
        wav.write_bytes(blob)
        capsys.readouterr()
        assert run(["detect-audio", str(wav)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"xrprobe detect-audio: {wav}: {message}\n"
        assert captured.out == ""

    def test_missing_out_dir_is_one_line_error(self, tmp_path):
        # in a fresh interpreter, so that anything printed while a half-built
        # wave writer is collected reaches the stderr checked here
        src = str(Path(xrprobe.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run(
            [sys.executable, "-m", "xrprobe.cli", "gen-audio",
             "--out", str(tmp_path / "missing" / "a.wav"), "--duration-s", "0.2"],
            env=env, capture_output=True, text=True)
        assert done.returncode == 1
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith("xrprobe gen-audio: ")
        assert list(tmp_path.iterdir()) == []


class TestSimulateAnalyze:
    def test_simulate_writes_log_and_tally(self, tmp_path, capsys):
        sc = write_scenario(tmp_path / "sc.json")
        out = tmp_path / "out"
        assert run(["simulate", "--scenario", str(sc), "--out", str(out)]) == 0
        capsys.readouterr()
        recs = list(read_log(out / "log.jsonl"))
        assert recs
        tally = json.loads((out / "tally.json").read_text())
        assert isinstance(tally, dict)

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        sc = write_scenario(tmp_path / "sc.json")
        a, b = tmp_path / "a", tmp_path / "b"
        run(["simulate", "--scenario", str(sc), "--seed", "42", "--out", str(a)])
        run(["simulate", "--scenario", str(sc), "--seed", "42", "--out", str(b)])
        capsys.readouterr()
        assert (a / "log.jsonl").read_bytes() == (b / "log.jsonl").read_bytes()
        assert (a / "tally.json").read_bytes() == (b / "tally.json").read_bytes()

    def test_seed_flag_changes_output(self, tmp_path, capsys):
        sc = write_scenario(tmp_path / "sc.json")
        a, b = tmp_path / "a", tmp_path / "b"
        run(["simulate", "--scenario", str(sc), "--seed", "1", "--out", str(a)])
        run(["simulate", "--scenario", str(sc), "--seed", "2", "--out", str(b)])
        capsys.readouterr()
        assert (a / "log.jsonl").read_bytes() != (b / "log.jsonl").read_bytes()

    def test_analyze_report(self, tmp_path, capsys):
        sc = write_scenario(tmp_path / "sc.json")
        out = tmp_path / "out"
        run(["simulate", "--scenario", str(sc), "--out", str(out)])
        assert run(["analyze", "--log", str(out)]) == 0
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        assert report["sample_count"]["video"] > 0
        assert "video" in report["inter_device_asynchrony"]
        assert "mean_latency_ms" in report
        header = (out / "epochs.csv").read_text().splitlines()[0]
        assert header == "epoch_start_ms,device,media,latency_ms"

    def test_analyze_explicit_out(self, tmp_path, capsys):
        sc = write_scenario(tmp_path / "sc.json")
        sim = tmp_path / "sim"
        run(["simulate", "--scenario", str(sc), "--out", str(sim)])
        rep = tmp_path / "rep"
        assert run(["analyze", "--log", str(sim / "log.jsonl"),
                    "--out", str(rep), "--epoch-ms", "500"]) == 0
        capsys.readouterr()
        assert (rep / "report.json").exists()
        assert (rep / "epochs.csv").exists()

    def test_analyze_and_serve_scan_the_log_once(self, tmp_path, capsys, monkeypatch):
        # one pass of the negative-latency rule over every record, and no other,
        # whether the scan is rendered as report.json or as the exposition;
        # report.json and epochs.csv share that scan, which holds both epoch maps
        sc = write_scenario(tmp_path / "sc.json")
        out = tmp_path / "out"
        run(["simulate", "--scenario", str(sc), "--out", str(out)])
        calls, scans = [], []
        scan_log = metrics.scan_log

        def counted(records, *args):
            calls.append(list(records))
            scans.append(scan_log(calls[-1], *args))
            return scans[-1]

        for module in (cli, metrics):
            monkeypatch.setattr(module, "scan_log", counted)
        for argv in (["analyze"], ["serve", "--serve-port", "0"]):
            calls.clear()
            scans.clear()
            assert run([argv[0], "--log", str(out), *argv[1:]]) == 0
            capsys.readouterr()
            assert calls == [list(read_log(out / "log.jsonl"))]
            assert all(scans[0].epochs[media] for media in ("video", "audio"))

    def test_physical_mode_layout(self, tmp_path, capsys):
        sc = write_scenario(tmp_path / "sc.json", duration_s=6.0)
        out = tmp_path / "out"
        assert run(["simulate", "--scenario", str(sc), "--seed", "3",
                    "--out", str(out), "--physical"]) == 0
        capsys.readouterr()
        assert (out / "log.jsonl").exists()
        assert (out / "log_symbolic.jsonl").exists()
        phys = out / "physical"
        assert (phys / "u2" / "video" / "manifest.json").exists()
        assert (phys / "u2" / "video" / "frames.pgm").exists()
        assert (phys / "u2" / "audio.wav").exists()
        assert list(read_log(out / "log.jsonl"))


def _tally_dir(tmp_path, tally: str):
    """A one-record log with ``tally`` as its ``tally.json``."""
    directory = tmp_path / "log"
    directory.mkdir()
    write_log(directory / "log.jsonl",
              [metrics.DetectionRecord("video", "u2", 1000, 1250, slot=1)])
    (directory / "tally.json").write_text(tally)
    return directory


_READERS = {"analyze": lambda d: ["analyze", "--log", str(d)],
            "serve": lambda d: ["serve", "--log", str(d), "--serve-port", "0"]}


class TestTallySidecar:
    @pytest.mark.parametrize("command", sorted(_READERS))
    @pytest.mark.parametrize("tally, message", [
        ('{"frames_lost": "x"}', "tally.json.frames_lost: expected an integer, got 'x'"),
        ("[1, 2]", "tally.json: expected an object, got list"),
        ('{"frames_lost": -1}', "tally.json.frames_lost: expected a count >= 0, got -1"),
        # a key that would not make a valid exposition name
        ('{"lost frames": 2, "a\\"b": 1}',
         "tally.json.lost frames: expected a key of [A-Za-z0-9_]+, got 'lost frames'"),
        ('{"a\\"b": 1}', "tally.json.a\"b: expected a key of [A-Za-z0-9_]+, got 'a\"b'"),
        ('{"a\\nb": 1}', "tally.json.a\\nb: expected a key of [A-Za-z0-9_]+, got 'a\\nb'"),
        ('{"": 1}', "tally.json.: expected a key of [A-Za-z0-9_]+, got ''"),
    ])
    def test_bad_sidecar_is_one_line_error(self, tmp_path, capsys, command, tally, message):
        directory = _tally_dir(tmp_path, tally)
        assert run(_READERS[command](directory)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"xrprobe {command}: {message}\n"
        assert captured.out == ""

    def test_good_sidecar_is_counted(self, tmp_path, capsys):
        directory = _tally_dir(tmp_path, '{"frames_lost_uplink": 3, "crc_mismatch": 0}')
        assert run(_READERS["analyze"](directory)) == 0
        report = json.loads((directory / "report.json").read_text())
        assert report["diagnostics"] == {"crc_mismatch": 0, "frames_lost_uplink": 3}
        capsys.readouterr()
        assert run(_READERS["serve"](directory)) == 0
        body = capsys.readouterr().out.splitlines()
        assert "xr_frames_lost_uplink_total 3" in body
        assert "xr_crc_failures_total 0" in body


_DEEP = "[" * 100_000


def _deep_edge(tmp_path, edge):
    """argv reading a file of 100,000 "[" at ``edge``, and that file."""
    if edge == "simulate":
        bad = tmp_path / "scenario.json"
        argv = ["simulate", "--scenario", str(bad), "--out", str(tmp_path / "out")]
    elif edge == "detect-video":
        frames = tmp_path / "frames"
        run(["gen-video", "--out", str(frames), "--fps", "5", "--duration-s", "0.4"])
        bad, argv = frames / "manifest.json", ["detect-video", str(frames)]
    elif edge == "detect-audio":
        wav = tmp_path / "tone.wav"
        run(["gen-audio", "--out", str(wav), "--duration-s", "0.5"])
        bad, argv = tmp_path / "tone.wav.json", ["detect-audio", str(wav)]
    else:
        directory = _tally_dir(tmp_path, "")
        bad, argv = directory / "tally.json", _READERS["analyze"](directory)
    bad.write_text(_DEEP)
    return argv, bad


@pytest.mark.parametrize("edge", ["simulate", "detect-video", "detect-audio", "analyze"])
def test_deep_nesting_is_one_line_error(tmp_path, capsys, edge):
    argv, bad = _deep_edge(tmp_path, edge)
    capsys.readouterr()
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"xrprobe {argv[0]}: <root>: {bad}: invalid JSON: maximum "
                            f"recursion depth exceeded while decoding a JSON array from "
                            f"a unicode string\n")
    assert captured.out == ""


@pytest.mark.parametrize("command", sorted(_READERS))
@pytest.mark.parametrize("line, reason", [
    (_DEEP, "maximum recursion depth exceeded while decoding a JSON array"),
    ('{"a":' * 100_000, "maximum recursion depth exceeded while decoding a JSON object"),
    ('{"media": "video", "device": "u2", "playout_ts": 9, "emission_ts": 1' + "0" * 5000 + "}",
     "Exceeds the limit (4300 digits) for integer string conversion")],
    ids=["deep_array", "deep_object", "over_long_integer"])
def test_undecodable_log_line_is_named(tmp_path, capsys, command, line, reason):
    directory = _tally_dir(tmp_path, "{}")
    with open(directory / "log.jsonl", "a") as fh:
        fh.write(line + "\n")
    assert run(_READERS[command](directory)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"xrprobe {command}: line 2: invalid JSON ({reason}")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert sorted(p.name for p in directory.iterdir()) == ["log.jsonl", "tally.json"]


@pytest.mark.parametrize("command", sorted(_READERS))
def test_non_utf8_log_line_is_named(tmp_path, capsys, command):
    directory = _tally_dir(tmp_path, "{}")
    with open(directory / "log.jsonl", "ab") as fh:
        fh.write(b'{"media": "video", "device": "u\xff", "playout_ts": 9, "emission_ts": 1}\n')
    assert run(_READERS[command](directory)) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"xrprobe {command}: line 2: invalid UTF-8 ('utf-8' codec can't "
                            "decode byte 0xff in position 31: invalid start byte)\n")
    assert captured.out == ""
    assert sorted(p.name for p in directory.iterdir()) == ["log.jsonl", "tally.json"]


@pytest.mark.parametrize("command", sorted(_READERS))
@pytest.mark.parametrize("emission, playout, key", [
    ("1", "1" + "0" * 400, "playout_ts"), ("-1", "9", "emission_ts"),
    ("1", str(2**64), "playout_ts")], ids=["400_digits", "negative", "two_to_the_64"])
def test_timestamp_outside_the_range_is_named(tmp_path, capsys, command, emission, playout, key):
    # a difference past float range would otherwise stop the scan with a traceback
    directory = _tally_dir(tmp_path, "{}")
    with open(directory / "log.jsonl", "a") as fh:
        fh.write(f'{{"device": "u1", "emission_ts": {emission}, "media": "video", '
                 f'"playout_ts": {playout}, "slot": 1}}\n')
    assert run(_READERS[command](directory)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"xrprobe {command}: line 2: field {key!r} must be in "
                                   "0..2**64-1, got ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert sorted(p.name for p in directory.iterdir()) == ["log.jsonl", "tally.json"]


class TestServe:
    def test_port_zero_prints_exposition(self, tmp_path, capsys):
        sc = write_scenario(tmp_path / "sc.json")
        out = tmp_path / "out"
        run(["simulate", "--scenario", str(sc), "--out", str(out)])
        capsys.readouterr()
        assert run(["serve", "--log", str(out), "--serve-port", "0"]) == 0
        body = capsys.readouterr().out
        assert "xr_m2p_latency_ms" in body
        lines = [ln for ln in body.splitlines() if ln]
        assert lines == sorted(lines)

    def test_missing_log_fails(self, tmp_path, capsys):
        rc = run(["serve", "--log", str(tmp_path / "gone.jsonl"), "--serve-port", "0"])
        assert rc == 1
        capsys.readouterr()
