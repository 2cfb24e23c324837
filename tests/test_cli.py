import json
import socket
import subprocess
import sys

import pytest

from invlab.cli import main
from invlab.config import AttackSweep, DefenseSweep, ExperimentConfig, save_config
from invlab.corpus import save_jsonl_corpus
from invlab.datagen import bijective_dictionary, parallel_corpora
from invlab.embeddings import NgramConfig
from invlab.report import read_report_csv
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

    def test_seed_override_accepted(self, config_path, tmp_path, capsys):
        assert main(["--config", str(config_path), "--seed", "99", "attack", "--langs", "en"]) == 0
        assert (tmp_path / "out" / "reconstruction.csv").exists()
