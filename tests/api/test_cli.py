"""Tests for the consolidated CLI."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro.__main__ import main as repro_main
from repro.data import load_dataset
from repro.data.io import read_csv, write_csv
from repro.data.missing import inject_missing

SRC = Path(repro.__file__).resolve().parent.parent


@pytest.fixture
def dirty_csv(tmp_path):
    relation = load_dataset("asf", size=80)
    injection = inject_missing(relation, fraction=0.05, random_state=0)
    path = tmp_path / "dirty.csv"
    write_csv(injection.dirty, path)
    return path


class TestImputeSubcommand:
    def test_imputes_a_csv_end_to_end(self, dirty_csv, tmp_path, capsys):
        out = tmp_path / "clean.csv"
        code = repro_main([
            "impute", str(dirty_csv), "--method", "kNN", "--set", "k=4",
            "--output", str(out),
        ])
        assert code == 0
        assert "imputed" in capsys.readouterr().out
        cleaned = read_csv(out)
        assert cleaned.n_missing_cells == 0

    def test_unknown_method_fails_with_suggestion(self, dirty_csv, capsys):
        code = repro_main(["impute", str(dirty_csv), "--method", "knnn"])
        assert code == 2
        assert "did you mean" in capsys.readouterr().err

    def test_unknown_override_fails_early(self, dirty_csv, capsys):
        code = repro_main([
            "impute", str(dirty_csv), "--method", "kNN", "--set", "neighbors=4",
        ])
        assert code == 2
        assert "neighbors" in capsys.readouterr().err

    def test_complete_relation_is_a_noop(self, tmp_path, capsys):
        relation = load_dataset("sn", size=30)
        path = tmp_path / "complete.csv"
        write_csv(relation, path)
        assert repro_main(["impute", str(path), "--method", "Mean"]) == 0
        assert "nothing to impute" in capsys.readouterr().out


class TestReplaySubcommand:
    def test_forwards_to_the_trace_replay(self, capsys):
        code = repro_main([
            "replay", "--demo", "60", "--dataset", "sn", "--k", "3",
            "--learning", "fixed", "--learning-neighbors", "3",
        ])
        assert code == 0
        assert "store holds" in capsys.readouterr().out

    def test_replay_does_not_warn(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            repro_main([
                "replay", "--demo", "40", "--dataset", "sn", "--k", "3",
                "--learning", "fixed", "--learning-neighbors", "3",
            ])
        capsys.readouterr()
        assert not [
            entry for entry in caught
            if issubclass(entry.category, DeprecationWarning)
        ]


STATEMENT_TRACE = """\
-- a statement trace: data verbs and queries in one script
APPEND VALUES (1.0, 2.0, 3.0), (1.1, 2.1, 3.1), (0.9, 1.9, 2.9),
              (1.2, 2.2, 3.2), (1.05, 2.05, 3.05), (0.95, 1.95, 2.95);
APPEND (1.02, ?, 3.02);
SELECT A1, A2 WHERE A1 > 0.9 ORDER BY A2 DESC LIMIT 3;
UPDATE 0 SET A1 = 1.01;
IMPUTE;
DELETE 1;
SELECT count(*), avg(A1);
"""

MODEL_ARGS = ["--k", "3", "--learning", "fixed", "--learning-neighbors", "3"]


class TestStatementTraceReplay:
    def test_replays_a_statement_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.sql"
        trace.write_text(STATEMENT_TRACE)
        assert repro_main(["replay", str(trace)] + MODEL_ARGS) == 0
        out = capsys.readouterr().out
        assert "replayed 7 statements" in out
        assert "1 imputed on demand)" in out  # the on-demand SELECT
        assert "rows_promoted=1" in out
        assert "store holds 6 tuples (0 pending)" in out

    def test_detection_survives_comments_and_case(self, tmp_path, capsys):
        trace = tmp_path / "trace.sql"
        trace.write_text(
            "-- header comment\n\nappend (1.0, 2.0), (1.5, 2.5);\n",
            encoding="utf-8",
        )
        assert repro_main(["replay", str(trace)] + MODEL_ARGS) == 0
        assert "replayed 1 statements" in capsys.readouterr().out

    def test_plain_csv_is_not_mistaken_for_statements(self, tmp_path, capsys):
        relation = load_dataset("sn", size=40)
        injection = inject_missing(relation, fraction=0.1, random_state=1)
        trace = tmp_path / "rows.csv"
        write_csv(injection.dirty, trace)
        assert repro_main(["replay", str(trace)] + MODEL_ARGS) == 0
        out = capsys.readouterr().out
        assert "store holds" in out and "replayed" not in out

    def test_statement_trace_does_not_warn(self, tmp_path, capsys):
        trace = tmp_path / "trace.sql"
        trace.write_text("APPEND (1.0, 2.0), (2.0, 3.0);\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert repro_main(["replay", str(trace)] + MODEL_ARGS) == 0
        capsys.readouterr()
        assert not [
            entry for entry in caught
            if issubclass(entry.category, DeprecationWarning)
        ]

    def test_ops_flag_rejects_a_statement_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.sql"
        trace.write_text("IMPUTE;\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            code = repro_main(["replay", str(trace), "--ops"] + MODEL_ARGS)
        assert code == 2
        assert "statement" in capsys.readouterr().err


class TestDeprecatedOpsFormat:
    @pytest.fixture
    def ops_csv(self, tmp_path):
        path = tmp_path / "ops.csv"
        path.write_text(
            "op,index,a,b\n"
            "append,,1.0,2.0\n"
            "append,,1.1,2.1\n"
            "append,,0.9,1.9\n"
            "append,,1.2,2.2\n"
            "impute,,1.5,\n"
            "update,0,1.01,2.0\n"
            "delete,1,,\n"
        )
        return path

    def test_ops_replay_warns_exactly_once_and_still_works(
        self, ops_csv, capsys
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = repro_main(["replay", str(ops_csv), "--ops"] + MODEL_ARGS)
        assert code == 0
        assert "store holds" in capsys.readouterr().out
        deprecations = [
            entry for entry in caught
            if issubclass(entry.category, DeprecationWarning)
        ]
        assert len(deprecations) == 1
        message = str(deprecations[0].message)
        assert "deprecated" in message
        assert "query statement language" in message


class TestRecoverSubcommand:
    @pytest.fixture
    def crashed_wal(self, tmp_path):
        """A WAL left behind by a session that never checkpointed."""
        from repro.api import MutationOp, OnlineSession
        from repro.reliability import WriteAheadLog

        values = load_dataset("sn", size=60).raw
        session = OnlineSession(k=3, learning="fixed", learning_neighbors=3)
        session.attach_wal(
            WriteAheadLog(tmp_path / "wal", config=session.config_wire())
        )
        session.fit(values[:40])
        session.mutate([MutationOp.append(values[40:44])])
        session.close()
        return tmp_path / "wal"

    def test_recovers_and_reports(self, crashed_wal, capsys):
        assert repro_main(["recover", str(crashed_wal)]) == 0
        out = capsys.readouterr().out
        assert "replayed 2 WAL op(s)" in out
        assert "44 tuples live" in out

    def test_json_report(self, crashed_wal, capsys):
        import json

        assert repro_main(["recover", str(crashed_wal), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["replayed_ops"] == 2
        assert report["n_tuples"] == 44
        assert report["torn_tail"] is None

    def test_output_writes_checkpoint_and_truncates(self, crashed_wal, tmp_path, capsys):
        from repro.api import restore_session
        from repro.reliability import read_wal

        ckpt = tmp_path / "ckpt"
        assert repro_main([
            "recover", str(crashed_wal), "--output", str(ckpt),
        ]) == 0
        assert "fresh checkpoint" in capsys.readouterr().out
        session = restore_session(ckpt)
        assert session.stats()["n_tuples"] == 44
        state = read_wal(crashed_wal)
        assert state.base_seq == 2 and not state.ops

    def test_missing_wal_dir_fails_cleanly(self, tmp_path, capsys):
        assert repro_main(["recover", str(tmp_path / "nowhere")]) == 2
        assert "no WAL directory" in capsys.readouterr().err


class TestBareInvocation:
    def test_no_subcommand_prints_help(self, capsys):
        assert repro_main([]) == 2
        assert "impute" in capsys.readouterr().out


class TestServeStartup:
    def test_a_malformed_environment_knob_exits_2_before_serving(self):
        env = dict(os.environ)
        env["REPRO_OBS_ENABLED"] = "maybe"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--stdio"], env=env,
            input='{"cmd": "health"}\n', capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: REPRO_OBS_ENABLED"), proc.stderr
        assert proc.stdout == ""
