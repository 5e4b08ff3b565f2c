"""Tests for the command-line driver."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_and_obs_share_the_experiment_options(self):
        flags = ["--song", "--noise", "--switches", "3", "--samples", "50",
                 "--smoke", "--workload", "mice"]
        parsed = {
            verb: vars(build_parser().parse_args([verb, "fig2a", *flags]))
            for verb in ("run", "obs")
        }
        assert parsed["run"] == {**parsed["obs"], "command": "run"}
        assert parsed["obs"]["switches"] == 3
        assert parsed["obs"]["workload"] == "mice"


class TestRun:
    def test_run_fig2a(self, capsys):
        assert main(["run", "fig2a"]) == 0
        out = capsys.readouterr().out
        assert "Fig 2a" in out
        assert "all identified: True" in out

    def test_run_fig2a_with_noise_flag(self, capsys):
        assert main(["run", "fig2a", "--noise", "--switches", "3"]) == 0
        assert "all identified: True" in capsys.readouterr().out

    def test_run_fig2b_sample_count(self, capsys):
        assert main(["run", "fig2b", "--samples", "50"]) == 0
        assert "p90" in capsys.readouterr().out

    def test_run_fig5cd(self, capsys):
        assert main(["run", "fig5cd"]) == 0
        out = capsys.readouterr().out
        assert "500 Hz" in out
        assert "700 Hz" in out

    def test_run_fig4ab_song_flag(self, capsys):
        assert main(["run", "fig4ab", "--song"]) == 0
        out = capsys.readouterr().out
        assert "with song" in out
        assert "detected: True" in out


#: The entries the tests above do not drive, with the flags that keep
#: them fast.  ``--smoke`` shrinks the xext sweeps.
OTHER_ENTRIES = [
    ("fig3", []), ("fig4cd", []), ("fig5ab", []), ("fig6", []),
    ("fig7", []), ("xbase", []), ("xext", []), ("xext12", ["--smoke"]),
    ("xext13", ["--smoke"]), ("xext14", ["--smoke"]),
    ("xext15", ["--smoke"]), ("xext17", ["--smoke"]),
]


@pytest.mark.parametrize("name, flags", OTHER_ENTRIES,
                         ids=[name for name, _flags in OTHER_ENTRIES])
def test_run_prints_every_result_table(name, flags, tmp_path, monkeypatch,
                                       capsys):
    """Each entry exits 0, prints every table of every result it ran,
    and writes JSON records only where the BENCH_* variables point."""
    for variable in ("BENCH_FLEET_JSON", "BENCH_WORKLOAD_JSON",
                     "BENCH_CHAOS_JSON"):
        monkeypatch.setenv(variable, str(tmp_path / "out" / variable))
    monkeypatch.chdir(tmp_path)
    description, runner = EXPERIMENTS[name]
    results = []

    def recording_runner(args):
        results.extend(runner(args))
        return results

    monkeypatch.setitem(EXPERIMENTS, name, (description, recording_runner))
    assert main(["run", name, *flags]) == 0
    out = capsys.readouterr().out
    titles = [table.title for result in results for table in result.tables()]
    assert titles
    for title in titles:
        assert f"== {title}" in out
    assert not (tmp_path / ".benchmarks").exists()


class TestRender:
    @pytest.mark.parametrize("scene", ["knock", "chirps", "song"])
    def test_render_writes_wav(self, scene, tmp_path, capsys):
        target = tmp_path / f"{scene}.wav"
        assert main(["render", scene, str(target)]) == 0
        assert target.stat().st_size > 10_000
        assert "have a listen" in capsys.readouterr().out

    def test_rendered_knock_contains_the_melody(self, tmp_path):
        """The exported WAV really carries the three knock tones."""
        from repro.audio import FrequencyDetector, read_wav

        target = tmp_path / "knock.wav"
        main(["render", "knock", str(target)])
        signal = read_wav(target)
        # The knock frequencies are the first three plan slots (400,
        # 420, 440 Hz with the default plan).  The WAV is normalized:
        # use a permissive absolute floor.
        detector = FrequencyDetector([400.0, 420.0, 440.0],
                                     min_level_db=-100.0)
        heard = {
            event.frequency
            for event in detector.detect_stream(signal, frame_duration=0.2)
        }
        assert heard == {400.0, 420.0, 440.0}

    def test_unknown_scene_rejected(self):
        with pytest.raises(SystemExit):
            main(["render", "silence", "x.wav"])
