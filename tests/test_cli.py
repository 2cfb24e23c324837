import json
import socket
import subprocess
import sys

import pytest

from invlab.cli import main
from invlab.config import AttackSweep, DefenseSweep, ExperimentConfig, load_config, save_config
from invlab.corpus import save_jsonl_corpus
from invlab.datagen import bijective_dictionary, parallel_corpora
from invlab.embeddings import NgramConfig, NgramEmbedder
from invlab.experiments import build_retrieval_tasks
from invlab.report import read_report_csv
from invlab.retrieval import evaluate_task
from invlab.translate import save_dictionary_tsv


@pytest.fixture
def config_path(tmp_path):
    corpora = parallel_corpora(["en", "fr"], 4, vocab_size=8, min_len=3, max_len=3, seed=1)
    paths = {}
    for lang, corpus in corpora.items():
        path = tmp_path / f"{lang}.jsonl"
        save_jsonl_corpus(corpus, path)
        paths[lang] = str(path)
    dict_path = tmp_path / "en-fr.tsv"
    save_dictionary_tsv(bijective_dictionary("en", "fr", 8), dict_path)
    config = ExperimentConfig(
        corpora=paths,
        embedder=NgramConfig(n=3, dim=64, seed=5),
        attack=AttackSweep(steps=[1], beams=[2], max_tokens=3),
        defense=DefenseSweep(lambdas=[0.0], masking=True, language_agnostic=False),
        dictionaries={"en-fr": str(dict_path)},
        seed=4,
        out_dir=str(tmp_path / "out"),
        test_size=4,
    )
    path = tmp_path / "config.json"
    save_config(config, path)
    return path


class TestEmbedCommand:
    def test_prints_vectors(self, config_path, capsys):
        assert main(["--config", str(config_path), "embed", "--text", "hello"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["embeddings"]) == 1
        assert len(payload["embeddings"][0]) == 64
        assert payload["queries_used"] == 1

    def test_lang_flag_removed(self, config_path):
        with pytest.raises(SystemExit):
            main(["--config", str(config_path), "embed", "--text", "hello", "--lang", "en"])


class TestAttackCommand:
    def test_writes_report(self, config_path, tmp_path, capsys):
        assert main(["--config", str(config_path), "attack", "--langs", "en"]) == 0
        report = read_report_csv(tmp_path / "out" / "reconstruction.csv")
        assert len(report.rows) == 2  # mono and multi cells

    def test_markdown_format(self, config_path, tmp_path, capsys):
        main(["--config", str(config_path), "attack", "--langs", "en", "--format", "markdown"])
        assert (tmp_path / "out" / "reconstruction.md").exists()

    def test_out_override(self, config_path, tmp_path, capsys):
        other = tmp_path / "elsewhere"
        main(["--config", str(config_path), "--out", str(other), "attack", "--langs", "en"])
        assert (other / "reconstruction.csv").exists()


class TestCrosslingualCommand:
    def test_writes_report(self, config_path, tmp_path, capsys):
        assert main(["--config", str(config_path), "crosslingual", "--src", "en", "--tgt", "fr"]) == 0
        report = read_report_csv(tmp_path / "out" / "crosslingual_en_fr.csv")
        assert [r.experiment_id for r in report.rows] == ["xling_pre", "xling_post", "xling_gain"]


class TestDefendSweepCommand:
    def test_writes_report_and_plot(self, config_path, tmp_path, capsys):
        assert main(["--config", str(config_path), "defend-sweep"]) == 0
        report = read_report_csv(tmp_path / "out" / "defense_sweep.csv")
        assert [r.defense for r in report.rows] == ["none", "noise:0", "mask"]
        assert (tmp_path / "out" / "defense_sweep_plot.csv").exists()


class TestRetrieveCommand:
    def test_prints_ndcg_lines(self, config_path, capsys):
        assert main(["--config", str(config_path), "retrieve"]) == 0
        out = capsys.readouterr().out
        assert "mono-en" in out
        assert "mean\tndcg@10=" in out

    def test_defended_retrieval(self, config_path, capsys):
        assert main(["--config", str(config_path), "retrieve", "--mask", "--k", "5"]) == 0
        assert "ndcg@5=" in capsys.readouterr().out

    def test_default_output_is_undefended(self, config_path, capsys):
        # The default flags build an all-off defense, which is the identity.
        config = load_config(config_path)
        embedder = NgramEmbedder(config.embedder)
        scores = {t.name: evaluate_task(t, embedder, None) for t in build_retrieval_tasks(config)}
        lines = [f"{name}\tndcg@10={score:.6f}" for name, score in scores.items()]
        lines.append(f"mean\tndcg@10={sum(scores.values()) / len(scores):.6f}")
        assert main(["--config", str(config_path), "retrieve"]) == 0
        assert capsys.readouterr().out.splitlines() == lines

    @pytest.mark.parametrize("flags", [[], ["--mask"]], ids=["plain", "mask"])
    @pytest.mark.parametrize("lam", ["-1", "nan", "inf"])
    def test_bad_noise_lambda_refused(self, config_path, capsys, flags, lam):
        with pytest.raises(SystemExit, match="noise_lambda must be finite and non-negative"):
            main(["--config", str(config_path), "retrieve", "--noise-lambda", lam, *flags])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_k_below_one_refused(self, config_path, capsys, k):
        with pytest.raises(SystemExit, match="--k must be at least 1"):
            main(["--config", str(config_path), "retrieve", "--k", k])
        assert capsys.readouterr().out == ""

    def test_no_tasks_refused(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(SystemExit, match="needs at least one corpus or retrieval task"):
            main(["--config", str(path), "retrieve"])
        assert capsys.readouterr().out == ""


class TestReportCommand:
    def test_rerenders_markdown(self, config_path, tmp_path, capsys):
        main(["--config", str(config_path), "attack", "--langs", "en"])
        csv_path = tmp_path / "out" / "reconstruction.csv"
        capsys.readouterr()
        assert main(["report", "--input", str(csv_path), "--format", "markdown"]) == 0
        assert "## en" in capsys.readouterr().out


class TestServeCommand:
    def test_serves_over_tcp(self, config_path):
        proc = subprocess.Popen(
            [sys.executable, "-m", "invlab.cli", "--config", str(config_path), "serve"],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("serving on ")
            host, port = line.removeprefix("serving on ").split(":")
            with socket.create_connection((host, int(port)), timeout=10) as sock:
                sock.sendall(b'{"op": "embed", "texts": ["ping"]}\n')
                response = json.loads(sock.makefile("rb").readline())
            assert response["dim"] == 64
            assert response["queries_used"] == 1
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()


class TestParsing:
    def test_missing_config_rejected(self):
        with pytest.raises(SystemExit):
            main(["attack"])

    def test_bad_remote_rejected(self, config_path):
        with pytest.raises(SystemExit):
            main(["--config", str(config_path), "attack", "--remote", "nocolon"])

    @pytest.mark.parametrize(
        "remote", ["localhost:http", "localhost:", "localhost:0", "localhost:65536", "h:-1", "h:１２"]
    )
    def test_bad_remote_port_rejected(self, config_path, remote):
        with pytest.raises(SystemExit, match="--remote expects host:port"):
            main(["--config", str(config_path), "attack", "--remote", remote])

    def test_config_error_is_one_line_exit_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"corpora": {"en": 5}}), encoding="utf-8")
        assert main(["--config", str(path), "attack"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invlab: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_corpus_format_error_is_one_line_exit_2(self, config_path, capsys):
        corpus = load_config(config_path).corpora["en"]
        with open(corpus, "a", encoding="utf-8") as fh:
            fh.write("not json\n")
        assert main(["--config", str(config_path), "attack", "--langs", "en"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invlab: {corpus}:5: invalid JSON") and err.count("\n") == 1

    def test_seed_override_accepted(self, config_path, tmp_path, capsys):
        assert main(["--config", str(config_path), "--seed", "99", "attack", "--langs", "en"]) == 0
        assert (tmp_path / "out" / "reconstruction.csv").exists()
