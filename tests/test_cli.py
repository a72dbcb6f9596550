import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import arabiclint
from arabiclint import data_path
from arabiclint.cli import main
from arabiclint.render import canonical_json, render_json

from test_acceptance import FUZZ_VOCABULARY, _fuzz_document


@pytest.fixture()
def clean_env(monkeypatch):
    monkeypatch.delenv("ARABICLINT_CONFIG", raising=False)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_latin1(tmp_path, name):
    """A file holding the byte 0xE9, which is not valid UTF-8."""
    path = tmp_path / name
    path.write_bytes("prefixes = caf\u00e9\n".encode("latin-1"))
    return str(path)


def assert_one_error_line(err, *parts):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert all(part in lines[0] for part in parts)


class TestCheck:
    def test_clean_sentence_exits_zero(self, tmp_path, capsys, clean_env):
        path = write(tmp_path, "in.txt", "أنتم لم تذهبوا")
        assert main(["check", path]) == 0
        assert "no faults" in capsys.readouterr().out

    def test_fault_exits_one(self, tmp_path, capsys, clean_env):
        path = write(tmp_path, "in.txt", "أنتم لم تذهبون")
        assert main(["check", path]) == 1
        out = capsys.readouterr().out
        assert "conjugation" in out and "تذهبون" in out

    def test_empty_input_exits_zero(self, tmp_path, capsys, clean_env):
        path = write(tmp_path, "in.txt", "")
        assert main(["check", path]) == 0

    def test_missing_file_exits_two(self, tmp_path, capsys, clean_env):
        assert main(["check", str(tmp_path / "nope.txt")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_utf8_exits_two(self, tmp_path, capsys, clean_env):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe\x00ab")
        assert main(["check", str(path)]) == 2
        assert "UTF-8" in capsys.readouterr().err

    def test_bad_rules_file_exits_two(self, tmp_path, capsys, clean_env):
        rules = write(tmp_path, "rules.xml", "<ReglesApplicables><oops>")
        path = write(tmp_path, "in.txt", "ذهب")
        assert main(["check", path, "--structure-rules", rules]) == 2

    def test_json_output_round_trips(self, tmp_path, capsys, clean_env):
        path = write(tmp_path, "in.txt", "أنتم لم تذهبون")
        assert main(["check", path, "--format", "json"]) == 1
        out = capsys.readouterr().out
        rendered = out[:-1]  # check ends the document with one newline
        parsed = json.loads(rendered)
        assert canonical_json(parsed) == rendered
        assert parsed["stats"]["conjugation"] == 1
        assert parsed["faults"][0]["spans"] == [[8, 14]]

    def test_color_never_has_no_escape_codes(self, tmp_path, capsys, clean_env):
        path = write(tmp_path, "in.txt", "أنتم لم تذهبون. و يبحث في الجمّة")
        main(["check", path, "--color", "never"])
        assert "\x1b[" not in capsys.readouterr().out
        # Without --color, the default `auto` paints nothing into capsys,
        # which is not a TTY.
        assert main(["check", path]) == 1
        assert "\x1b[" not in capsys.readouterr().out

    def test_color_always_paints_the_span(self, tmp_path, capsys, clean_env):
        path = write(tmp_path, "in.txt", "أنتم لم تذهبون")
        main(["check", path, "--color", "always"])
        out = capsys.readouterr().out
        assert "\x1b[4;35mتذهبون\x1b[0m" in out  # conjugation defaults to magenta

    def test_color_override_flag(self, tmp_path, capsys, clean_env):
        path = write(tmp_path, "in.txt", "أنتم لم تذهبون")
        main(["check", path, "--color", "always", "--colors", "conjugation=cyan"])
        assert "\x1b[4;36mتذهبون\x1b[0m" in capsys.readouterr().out

    def test_html_output_marks_spans(self, tmp_path, capsys, clean_env):
        path = write(tmp_path, "in.txt", "أنتم لم تذهبون. يذكر أن في مثل ذلك المكان")
        main(["check", path, "--format", "html"])
        out = capsys.readouterr().out
        assert '<mark class="fault-conjugation">تذهبون</mark>' in out
        assert 'class="sentence fault-structure"' in out

    def test_stdin_input(self, capsys, clean_env, monkeypatch):
        import io
        import sys

        monkeypatch.setattr(
            sys, "stdin",
            type("S", (), {"buffer": io.BytesIO("تذهب إيمان".encode())})(),
        )
        assert main(["check", "-"]) == 0

    def test_fold_hamza_flag_off_changes_verdict(self, tmp_path, capsys, clean_env):
        # Without folding, the hamza-less spelling ياخذ no longer matches أخذ.
        path = write(tmp_path, "in.txt", "ياخذ أيمن أقراص")
        assert main(["check", path, "--fold-hamza", "false"]) == 1
        assert "spelling" in capsys.readouterr().out

    def test_keep_diacritics_flag_changes_verdict(self, tmp_path, capsys, clean_env):
        # Diacritized words no longer match the undiacritized lexicon.
        path = write(tmp_path, "in.txt", "تَذْهَبُ إيمان")
        assert main(["check", path]) == 0
        assert main(["check", path, "--keep-diacritics", "true"]) == 1

    def test_affixes_flag_uses_custom_inventory(self, tmp_path, capsys, clean_env):
        # An inventory without the و proclitic makes وقواعد unanalyzable.
        affixes = write(tmp_path, "aff.txt", "prefixes = ال\nsuffixes = ة\n")
        path = write(tmp_path, "in.txt", "وقواعد")
        assert main(["check", path, "--affixes", str(affixes)]) == 1
        assert "spelling" in capsys.readouterr().out

    def test_env_config_supplies_defaults(self, tmp_path, capsys, monkeypatch):
        lexicon = write(
            tmp_path, "lex.xml", "<MOTS><Verbes><Verbe>ذهب</Verbe></Verbes></MOTS>"
        )
        rules = write(
            tmp_path,
            "rules.xml",
            "<ReglesApplicables><ReglesPhrasesVerbales>"
            "<regle>verbe</regle>"
            "</ReglesPhrasesVerbales></ReglesApplicables>",
        )
        config = write(
            tmp_path,
            "cfg",
            f"lexicon = {lexicon}\nstructure-rules = {rules}\nformat = json\n",
        )
        monkeypatch.setenv("ARABICLINT_CONFIG", config)
        path = write(tmp_path, "in.txt", "إيمان")
        assert main(["check", path]) == 1  # proper noun unknown to the tiny lexicon
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["stats"]["spelling"] == 1

    def test_flags_override_env_config(self, tmp_path, capsys, monkeypatch):
        config = write(tmp_path, "cfg", "format = json\n")
        monkeypatch.setenv("ARABICLINT_CONFIG", config)
        path = write(tmp_path, "in.txt", "تذهب إيمان")
        main(["check", path, "--format", "text"])
        assert "no faults" in capsys.readouterr().out

    def test_unreadable_env_config_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ARABICLINT_CONFIG", str(tmp_path / "nope.cfg"))
        path = write(tmp_path, "in.txt", "ذهب")
        assert main(["check", path]) == 2

    @pytest.mark.parametrize(
        "line, key",
        [
            ("fold-hamza = maybe", "fold-hamza"),
            ("format = xml", "format"),
            ("color = bogus", "color"),
        ],
    )
    def test_bad_env_config_value_exits_two(self, tmp_path, capsys, monkeypatch, line, key):
        # Checked as the equivalent flag would be: a usage error naming the key.
        monkeypatch.setenv("ARABICLINT_CONFIG", write(tmp_path, "cfg", line + "\n"))
        path = write(tmp_path, "in.txt", "تذهب إيمان")
        assert main(["check", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and key in captured.err

    def test_non_utf8_affixes_file_exits_two(self, tmp_path, capsys, clean_env):
        affixes = write_latin1(tmp_path, "affixes.txt")
        path = write(tmp_path, "in.txt", "ذهب")
        assert main(["check", path, "--affixes", affixes]) == 2
        assert_one_error_line(capsys.readouterr().err, "cannot read", "affixes.txt")

    def test_non_utf8_env_config_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ARABICLINT_CONFIG", write_latin1(tmp_path, "cfg"))
        path = write(tmp_path, "in.txt", "ذهب")
        assert main(["check", path]) == 2
        assert_one_error_line(capsys.readouterr().err, "cannot read ARABICLINT_CONFIG")

    def test_affixes_path_with_equals_sign(self, tmp_path, capsys, clean_env):
        # A path is a path even when it contains the key = value separator.
        directory = tmp_path / "a=b"
        directory.mkdir()
        affixes = directory / "affixes.txt"
        affixes.write_bytes(data_path("affixes.txt").read_bytes())
        path = write(tmp_path, "in.txt", "و يبحث في أصول تكوين الجمّة وقواعد")
        bundled_code = main(["check", path])
        bundled = capsys.readouterr()
        assert main(["check", path, "--affixes", str(affixes)]) == bundled_code == 1
        assert capsys.readouterr() == bundled

    def test_lexicon_warnings_reach_the_check_report(self, tmp_path, capsys, clean_env):
        lexicon = write(
            tmp_path,
            "lex.xml",
            "<MOTS><Verbes><Verbe>ذهب</Verbe><Verbe>ذهب</Verbe></Verbes>"
            "<Noms><NomCommun>جملة</NomCommun></Noms></MOTS>",
        )
        rules = write(
            tmp_path,
            "rules.xml",
            "<ReglesApplicables><ReglesPhrasesVerbales>"
            "<regle>verbe NomCommun</regle>"
            "</ReglesPhrasesVerbales></ReglesApplicables>",
        )
        text = write(tmp_path, "in.txt", "جملة")
        main(["check", text, "--format", "json", "--lexicon", lexicon, "--structure-rules", rules])
        report = json.loads(capsys.readouterr().out)
        assert report["warnings"] == ["duplicate entry dropped: ذهب in <Verbe>"]

    def test_closed_pipe_keeps_exit_code_and_silent_stderr(self, tmp_path, clean_env):
        # About 1.4 MB of JSON: far more than a pipe buffers, so the writer
        # meets the closed pipe mid-report.
        base = ". ".join(FUZZ_VOCABULARY[:30]) + ".\n"
        path = write(tmp_path, "in.txt", base * 100)
        src = str(Path(arabiclint.__file__).resolve().parent.parent)
        pythonpath = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=pythonpath)
        command = [sys.executable, "-m", "arabiclint.cli", "check", "--format", "json", path]
        with subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as child:
            assert len(child.stdout.read(1)) == 1
            child.stdout.close()
            stderr = child.stderr.read()
            code = child.wait(timeout=60)
        assert stderr == b""
        assert code == 1



def unreadable(tmp_path, kind):
    """Path of a missing file, a directory or a non-UTF-8 file."""
    if kind == "missing":
        return str(tmp_path / "missing.txt")
    if kind == "directory":
        (tmp_path / "dir").mkdir()
        return str(tmp_path / "dir")
    return write_latin1(tmp_path, "latin1.txt")


class TestOneErrorPath:
    @pytest.mark.parametrize("fmt", ["text", "json", "html"])
    def test_bad_colors_fails_before_input_and_data(
        self, fmt, tmp_path, capsys, clean_env, monkeypatch
    ):
        def no_engine(config):
            raise AssertionError("data files read before --colors was checked")

        monkeypatch.setattr(arabiclint.Engine, "from_config", no_engine)
        missing = str(tmp_path / "nope.txt")
        assert main(["check", "--format", fmt, "--colors", "bogus", missing]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, "bogus")

    @pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8"])
    @pytest.mark.parametrize("reader", ["ARABICLINT_CONFIG", "--affixes", "eval", "input"])
    def test_unreadable_file_names_its_path_once(
        self, reader, kind, tmp_path, capsys, clean_env, monkeypatch
    ):
        path = unreadable(tmp_path, kind)
        text = write(tmp_path, "in.txt", "ذهب")
        argv = {
            "ARABICLINT_CONFIG": ["check", text],
            "--affixes": ["check", text, "--affixes", path],
            "eval": ["eval", path],
            "input": ["check", path],
        }[reader]
        if reader == "ARABICLINT_CONFIG":
            monkeypatch.setenv(reader, path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, "cannot read")
        assert captured.err.count(path) == 1
        assert captured.err.count("cannot read") == 1
        assert captured.err.count("ARABICLINT_CONFIG") == (reader == "ARABICLINT_CONFIG")


class TestEnvConfigBeyondCheck:
    def test_fold_hamza_from_env_config_and_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ARABICLINT_CONFIG", write(tmp_path, "cfg", "fold-hamza = false\n"))
        assert main(["lexicon", "lookup", "ياخذ"]) == 1
        assert main(["lexicon", "lookup", "ياخذ", "--fold-hamza", "true"]) == 0

    def test_empty_path_keeps_the_bundled_lexicon(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ARABICLINT_CONFIG", write(tmp_path, "cfg", "lexicon = \n"))
        assert main(["lexicon", "lookup", "وقواعد"]) == 0
        assert "NomPluriel" in capsys.readouterr().out

    def test_rules_validate_reads_structure_rules(self, tmp_path, capsys, monkeypatch):
        rules = write(
            tmp_path,
            "rules.xml",
            "<ReglesApplicables><ReglesPhrasesVerbales>"
            "<regle>verbe</regle>"
            "</ReglesPhrasesVerbales></ReglesApplicables>",
        )
        # format is a check setting; other subcommands accept and ignore it.
        config = write(tmp_path, "cfg", f"structure-rules = {rules}\nformat = json\n")
        monkeypatch.setenv("ARABICLINT_CONFIG", config)
        assert main(["rules", "validate"]) == 0
        assert "structure rules: 1 (1 verbal, 0 nominal)" in capsys.readouterr().out


def run_under_hash_seeds(args):
    """(exit code, stdout, stderr) of `python -m arabiclint.cli ARGS` under
    PYTHONHASHSEED 0, 1 and 2."""
    src = str(Path(arabiclint.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=pythonpath)
    env.pop("ARABICLINT_CONFIG", None)
    runs = []
    for seed in ("0", "1", "2"):
        child = subprocess.run(
            [sys.executable, "-m", "arabiclint.cli", *args],
            capture_output=True,
            env=dict(env, PYTHONHASHSEED=seed),
            timeout=60,
        )
        runs.append((child.returncode, child.stdout, child.stderr))
    return runs


class TestHashSeed:
    def test_check_json_is_the_same_under_every_seed(self, engine, tmp_path):
        document = _fuzz_document(random.Random(424242))
        path = write(tmp_path, "in.txt", document)
        report = engine.analyze_text(document)
        expected = (1 if report.faults else 0, (render_json(report) + "\n").encode(), b"")
        assert run_under_hash_seeds(["check", "--format", "json", path]) == [expected] * 3

    def test_case_twin_categories_fail_alike_under_every_seed(self, tmp_path):
        lexicon = write(
            tmp_path,
            "lex.xml",
            "<MOTS><Verbes><Verbe>يذهب</Verbe><VERBE>يكتب</VERBE></Verbes>"
            "<Noms><NomCommun>بيت</NomCommun></Noms></MOTS>",
        )
        rules = write(
            tmp_path,
            "rules.xml",
            "<ReglesApplicables><ReglesPhrasesVerbales>"
            "<regle>verbe NomCommun</regle>"
            "</ReglesPhrasesVerbales></ReglesApplicables>",
        )
        text = write(tmp_path, "in.txt", "يذهب بيت.\nيكتب بيت.")
        args = ["check", "--format", "json", text, "--lexicon", lexicon]
        runs = run_under_hash_seeds(args + ["--structure-rules", rules])
        assert runs == [runs[0]] * 3
        code, out, err = runs[0]
        assert code == 2 and out == b""
        assert_one_error_line(err.decode(), "'verbe'", "VERBE, Verbe")


class TestEval:
    def test_shipped_corpus_strict_exits_zero(self, capsys, clean_env):
        assert main(["eval", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "spelling" in out and "1.00" in out
        assert "excluded from strict" in out

    def test_prints_precision_and_recall_extension(self, capsys, clean_env):
        main(["eval"])
        out = capsys.readouterr().out
        assert "precision" in out and "recall" in out and "extension" in out

    def test_injected_mismatch_fails_strict_and_names_entry(
        self, tmp_path, capsys, clean_env
    ):
        corpus = write(
            tmp_path,
            "c.jsonl",
            '{"text": "أنتم لم تذهبون", "gold": []}\n',
        )
        assert main(["eval", corpus, "--strict"]) == 1
        assert "entry 1" in capsys.readouterr().out

    def test_mismatch_without_strict_exits_zero(self, tmp_path, capsys, clean_env):
        corpus = write(tmp_path, "c.jsonl", '{"text": "أنتم لم تذهبون", "gold": []}\n')
        assert main(["eval", corpus]) == 0

    def test_missing_corpus_exits_two(self, tmp_path, capsys, clean_env):
        assert main(["eval", str(tmp_path / "nope.jsonl")]) == 2

    def test_non_utf8_corpus_exits_two(self, tmp_path, capsys, clean_env):
        corpus = write_latin1(tmp_path, "c.jsonl")
        assert main(["eval", corpus]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, "cannot read", "c.jsonl")

    @pytest.mark.parametrize(
        "line",
        [
            '{"text": "هم", "gold": [1]}',
            '{"text": "هم", "gold": 5}',
            '{"text": "هم", "gold": {"kind": "spelling", "ordinal": 0}}',
            '{"text": 5}',
            '{"text": null}',
            '{"text": "هم", "note": 5}',
            '{"text": "هم", "gold": [{"kind": "spelling", "ordinal": true}]}',
            '{"text": "هم", "gold": [{"kind": "spelling", "ordinal": -1}]}',
            '{"text": "هم", "gold": [{"kind": "spelling", "ordinal": 1.0}]}',
            '{"text": "هم", "gold": [{"kind": ["spelling"], "ordinal": 0}]}',
        ],
    )
    def test_malformed_entry_exits_two_naming_its_line(
        self, line, tmp_path, capsys, clean_env
    ):
        corpus = write(tmp_path, "c.jsonl", '{"text": "هم", "gold": []}\n' + line + "\n")
        assert main(["eval", corpus]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, "line 2")


class TestRulesValidate:
    def test_shipped_databases_are_clean(self, capsys, clean_env):
        assert main(["rules", "validate"]) == 0
        out = capsys.readouterr().out
        assert "lexicon: 59 entries" in out
        assert "structure rules: 9 (4 verbal, 5 nominal)" in out
        assert "conjugation rules: 28" in out

    def test_unknown_category_in_rules_exits_two(self, tmp_path, capsys, clean_env):
        rules = write(
            tmp_path,
            "rules.xml",
            "<ReglesApplicables><ReglesPhrasesNominales>"
            "<regle>Adjectif verbe</regle>"
            "</ReglesPhrasesNominales></ReglesApplicables>",
        )
        assert main(["rules", "validate", "--structure-rules", rules]) == 2
        assert "Adjectif" in capsys.readouterr().err

    def test_duplicate_conjugation_exits_two(self, tmp_path, capsys, clean_env):
        rules = write(
            tmp_path,
            "conj.xml",
            '<ReglesConjugaison><PronomPersonnel valeur="هو">'
            "<PresentSimple><prebase>ي</prebase><PostBase></PostBase></PresentSimple>"
            "</PronomPersonnel><PronomPersonnel valeur='هو'>"
            "<PresentSimple><prebase>ي</prebase><PostBase></PostBase></PresentSimple>"
            "</PronomPersonnel></ReglesConjugaison>",
        )
        assert main(["rules", "validate", "--conjugation-rules", rules]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_duplicate_lexicon_entry_warns_but_passes(self, tmp_path, capsys, clean_env):
        lexicon = write(
            tmp_path,
            "lex.xml",
            "<MOTS><Verbes><Verbe>ذهب</Verbe><Verbe>ذهب</Verbe></Verbes>"
            "<Noms><NomCommun>جملة</NomCommun></Noms></MOTS>",
        )
        # Structure rules reference categories the tiny lexicon lacks, so
        # point them at a matching small rule set.
        rules = write(
            tmp_path,
            "rules.xml",
            "<ReglesApplicables><ReglesPhrasesVerbales>"
            "<regle>verbe NomCommun</regle>"
            "</ReglesPhrasesVerbales></ReglesApplicables>",
        )
        assert (
            main(["rules", "validate", "--lexicon", lexicon, "--structure-rules", rules])
            == 0
        )
        assert "warning: duplicate" in capsys.readouterr().out


class TestLexiconLookup:
    def test_known_word_prints_analyses(self, capsys, clean_env):
        assert main(["lexicon", "lookup", "وقواعد"]) == 0
        out = capsys.readouterr().out
        assert "correct" in out
        assert "و + قواعد + ∅" in out
        assert "NomPluriel" in out

    def test_unknown_word_exits_one(self, capsys, clean_env):
        assert main(["lexicon", "lookup", "التسويق"]) == 1
        assert "unknown" in capsys.readouterr().out

    def test_ambiguous_word_lists_every_split(self, capsys, clean_env):
        main(["lexicon", "lookup", "هما"])
        out = capsys.readouterr().out
        assert "∅ + هما + ∅" in out and "∅ + هم + ا" in out

    def test_word_empty_after_normalization_exits_two(self, capsys, clean_env):
        assert main(["lexicon", "lookup", "\u064e"]) == 2  # a lone fatha
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, "empty after normalization")


class TestExitCodeContract:
    def test_usage_error_exits_two(self, clean_env):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--format", "yaml", "/dev/null"])
        assert excinfo.value.code == 2

    def test_bundled_data_exists(self):
        assert data_path("lexicon.xml").exists()
        assert data_path("corpus/table_4_1.jsonl").exists()
