"""Pinned bytes and error precedence of the catalog stages: ingest-catalog,
score-importance and build-relevance.

The digests were taken from the implementation that joined the dumps
through one dict per basics row, scored the whole catalog into a sorted
list before writing it, and loaded every scored title before the merge.
They pin any leaner implementation to exactly the same output files and
summaries. The dumps and the catalog are generated here, with ids out of
sorted order, titles missing some features, and in the dumps orphans,
rejects of every kind and ``\\N`` cells.

The memory guards run a stage in a fresh interpreter on two inputs that
differ only in titles the stage should stream past, and compare the peaks.
"""

import hashlib
import random

import pytest

from er_evalkit.cli import dispatch
from er_evalkit.jsonl import dumps

from peak import needs_vmhwm, peak_kb


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(capsys, *argv):
    code = dispatch([str(arg) for arg in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def shuffled_ids(rng, n):
    ids = [f"tt{i:07d}" for i in rng.sample(range(1, 10 * n), n)]
    rng.shuffle(ids)
    return ids


def tsv(header, rows):
    return "\n".join("\t".join(row) for row in [header, *rows]) + "\n"


def pinned_dumps(seed=5):
    """(basics, ratings, ranks) TSV texts: 300 basics rows in shuffled id
    order, ratings and ranks for most of them in another order, orphans in
    both, and rejected rows of each kind in each file."""
    rng = random.Random(seed)
    ids = shuffled_ids(rng, 300)
    basics = []
    for i, entity_id in enumerate(ids):
        year = rng.choice([str(rng.randint(1900, 2024))] * 8 + ["\\N", ""])
        basics.append([entity_id, f"Title {i} {rng.randint(0, 99)}", year])
    basics[10][1] = "\\N"          # missing title
    basics[20][2] = "1700"         # implausible year
    basics[30][2] = "19x9"         # unparseable year
    basics[40] = basics[40][:2]    # too few columns
    basics[50][0] = ""             # missing id
    rated = rng.sample(ids, 260)
    # Few distinct vote counts, so pseudo-ranks break many ties by id.
    ratings = [[entity_id, rng.choice([f"{rng.uniform(0, 10):.1f}", "\\N"]),
                rng.choice(["0", "7", "7", "120", "\\N",
                            str(rng.randint(1, 10**6))])]
               for entity_id in rated]
    ratings += [[f"tx{i}", "5.0", "10"] for i in range(6)]   # orphans
    ratings[5][1] = "11.0"         # rating out of range
    ratings[15][2] = "1e3"         # unparseable votes
    ratings[25][1] = "abc"         # unparseable rating
    ratings[35][0] = "\\N"         # missing id
    rng.shuffle(ratings)
    ranked = rng.sample(ids, 250)
    ranks = [[entity_id, str(r)] for r, entity_id in enumerate(ranked, 1)]
    ranks += [[f"ty{i}", str(900 + i)] for i in range(4)]    # orphans
    ranks[7][1] = "0"              # rank below 1
    ranks[17][1] = "x"             # unparseable rank
    ranks[27][1] = "\\N"           # missing rank
    rng.shuffle(ranks)
    return (tsv(["tconst", "primaryTitle", "startYear"], basics),
            tsv(["tconst", "averageRating", "numVotes"], ratings),
            tsv(["tconst", "rank"], ranks))


def pinned_catalog(seed=6):
    """Catalog JSONL text: 300 titles in shuffled id order, each feature
    absent from about one title in six."""
    rng = random.Random(seed)
    lines = []
    for i, entity_id in enumerate(shuffled_ids(rng, 300)):
        rec = {"entity_id": entity_id, "name": f"Title {i}"}
        if rng.random() > 1 / 6:
            rec["release_year"] = rng.randint(1920, 2024)
        if rng.random() > 1 / 6:
            rec["rank"] = rng.randint(1, 5000)
        if rng.random() > 1 / 6:
            rec["rating_count"] = rng.choice([0, 1, rng.randint(2, 10**6)])
        rec["rating"] = round(rng.uniform(0, 10), 1)
        lines.append(dumps(rec))
    return "\n".join(lines) + "\n"


# sha256 of the generated inputs, then, per flag set, of the stage's output
# file and of its summary with the --out path written as OUT.
DUMPS = ("8ef4d7e3dadfe93dd40cd71263486991cd173c9a833a34a2f69325b945bb6386",
         "4d30dac4e256bda923b63b8d3cf29ba58866185ecb54276ffc294cdbd7d676d2",
         "21d2666181845b11989a862bc87b6546d65866e8f152134e3b5c9f2bec8dc1b3")
INGEST = {
    "ranks": ("7c607023883e89bbf5454c12dbc36ed38c507b9b1362ef20b27555670e051867",
              "8c720c1ac5747515dd9bc952ecd1c8b3b1cc3d0c98663138ef37f3a2e6216715"),
    "pseudo-ranks": (
        "9a8cc6b1c9770502cf5ea544bfc5046a5f1ff145349237095eaa4559c44831fc",
        "d5cd5722146dafef9a913da561cb65b6182a87ed3968e285d317039eb5c190a7"),
}
CATALOG = "455818907313c096863c66d5d0e1881760a0a4059ac027d3161aa877e4822b4b"
BOUNDS = ("--bounds", "1950,2010,10,2000,50000")
EXCLUDE = ("--missing-feature-policy", "exclude_title")
SCORE = {
    (): ("d3906f93088d6b20677d4ffdb221aebc912322d2d6cd11a652729a877475a0e9",
         "0bf5b58e644ee89cba939acb24d82edce9a022932705ec622756f7f28f5c5d8f"),
    EXCLUDE: (
        "260e636c72d670b91123441b5b41646e08ee811bfb6e86d16d0aee498ef1c573",
        "9d791888e735f38b329234a1c754b7c3cff70c0e9aabd779d202774f2dc45baa"),
    BOUNDS: (
        "fc69376d9520b0d908d050cb7b03c459dd134a3ffcee51ceae32a704be82dcd2",
        "0bf5b58e644ee89cba939acb24d82edce9a022932705ec622756f7f28f5c5d8f"),
    BOUNDS + EXCLUDE: (
        "9487d47dd29cd2a5301d99aa508abd4a40960fd5dc1bb6047dc980c4603de698",
        "9d791888e735f38b329234a1c754b7c3cff70c0e9aabd779d202774f2dc45baa"),
}


def digests(out, stdout):
    return (sha256(out.read_bytes()),
            sha256(stdout.replace(str(out), "OUT").encode()))


class TestIngestCatalogBytes:
    @pytest.fixture
    def dump_paths(self, tmp_path):
        paths = [tmp_path / f"{name}.tsv"
                 for name in ("basics", "ratings", "ranks")]
        for path, text in zip(paths, pinned_dumps()):
            path.write_text(text, encoding="utf-8")
        assert tuple(sha256(path.read_bytes()) for path in paths) == DUMPS
        return paths

    @pytest.mark.parametrize("name", list(INGEST))
    def test_output_and_summary(self, capsys, tmp_path, dump_paths, name):
        basics, ratings, ranks = dump_paths
        out = tmp_path / "catalog.jsonl"
        argv = ["ingest-catalog", "--basics", basics, "--ratings", ratings,
                "--out", out]
        if name == "ranks":
            argv += ["--ranks", ranks]
        code, stdout, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert digests(out, stdout) == INGEST[name]


class TestScoreImportanceBytes:
    @pytest.fixture
    def catalog_path(self, tmp_path):
        path = tmp_path / "catalog.jsonl"
        path.write_text(pinned_catalog(), encoding="utf-8")
        assert sha256(path.read_bytes()) == CATALOG
        return path

    @pytest.mark.parametrize("flags", list(SCORE))
    def test_output_and_summary(self, capsys, tmp_path, catalog_path, flags):
        out = tmp_path / "scored.jsonl"
        code, stdout, err = run_cli(capsys, "score-importance", "--catalog",
                                    catalog_path, "--out", out, *flags)
        assert (code, err) == (0, "")
        assert digests(out, stdout) == SCORE[flags]


class TestErrorPrecedence:
    """Which of two faults in one invocation is reported."""

    def test_bad_scored_line_before_min_importance(self, capsys, tmp_path):
        ctr = tmp_path / "ctr.jsonl"
        ctr.write_text(dumps({"query": "q", "entity_id": "tt1", "nimp": 4,
                              "nclick": 2, "ctr": 0.5}) + "\n",
                       encoding="utf-8")
        scored = tmp_path / "scored.jsonl"
        scored.write_text(dumps({"entity_id": "tt1", "rank_score": 0.5,
                                 "rating_count_score": 0.5,
                                 "importance": 0.5}) + "\n", encoding="utf-8")
        out = tmp_path / "qrels.jsonl"
        code, stdout, err = run_cli(capsys, "build-relevance", "--ctr", ctr,
                                    "--scored", scored, "--out", out,
                                    "--min-importance", "2")
        assert (code, stdout) == (1, "")
        assert err == (f"error: {scored}:1: bad scored record: "
                       "'release_year_score'\n")
        assert not out.exists()

    def test_unparsable_config_min_importance_before_bad_scored_line(
            self, capsys, tmp_path):
        """The setting is resolved before the merge reads the stream."""
        ctr = tmp_path / "ctr.jsonl"
        ctr.write_text(dumps({"query": "q", "entity_id": "tt1", "nimp": 4,
                              "nclick": 2, "ctr": 0.5}) + "\n",
                       encoding="utf-8")
        scored = tmp_path / "scored.jsonl"
        scored.write_text("not json\n", encoding="utf-8")
        config = tmp_path / "settings.conf"
        config.write_text("min_importance = high\n", encoding="utf-8")
        out = tmp_path / "qrels.jsonl"
        code, stdout, err = run_cli(capsys, "build-relevance", "--ctr", ctr,
                                    "--scored", scored, "--out", out,
                                    "--config", config)
        assert (code, stdout) == (1, "")
        assert err == (f"error: min_importance 'high' from config file "
                       f"{config}: could not convert string to float: "
                       "'high'\n")
        assert not out.exists()

    def test_bounds_fit_before_output_opened(self, capsys, tmp_path):
        catalog = tmp_path / "catalog.jsonl"
        catalog.write_text("".join(
            dumps({"entity_id": f"tt{i}", "name": "A", "rank": i,
                   "rating_count": 10 * i}) + "\n" for i in (2, 1, 3)),
            encoding="utf-8")
        code, stdout, err = run_cli(capsys, "score-importance", "--catalog",
                                    catalog, "--out",
                                    tmp_path / "missing" / "scored.jsonl")
        assert (code, stdout) == (1, "")
        assert err == "error: cannot fit bounds: no title has release_year\n"

    @pytest.mark.parametrize("bounds,reason", [
        ("2020,1950,100,1,1000",
         "linear bounds need lo < hi, got lo=2020 hi=1950"),
        ("2020,1950,1,100,1000",
         "linear bounds need lo < hi, got lo=2020 hi=1950"),
        ("1950,2020,0,100,1000",
         "log scale needs positive bounds, got lo=0 hi=100"),
    ])
    @pytest.mark.parametrize("out_dir", ["missing", "."])
    def test_bad_fixed_bounds_in_catalog_order(self, capsys, tmp_path, bounds,
                                               reason, out_dir):
        """Bounds are checked as --bounds is parsed, the year pair first,
        whatever order the catalog's titles come in: the first title in the
        file has a rank but no year; in id order a title with a year comes
        first."""
        catalog = tmp_path / "catalog.jsonl"
        catalog.write_text("".join(dumps(rec) + "\n" for rec in [
            {"entity_id": "tt3", "name": "A", "rank": 5},
            {"entity_id": "tt1", "name": "B", "release_year": 2000,
             "rank": 3, "rating_count": 4},
            {"entity_id": "tt2", "name": "C", "release_year": 1990}]),
            encoding="utf-8")
        out = tmp_path / out_dir / "scored.jsonl"
        code, stdout, err = run_cli(capsys, "score-importance", "--catalog",
                                    catalog, "--out", out, "--bounds", bounds)
        assert (code, stdout, err) == (
            1, "", f"error: bounds {bounds!r} from flag --bounds: {reason}\n")
        assert not out.exists()

    def test_bad_bounds_before_missing_catalog(self, capsys, tmp_path):
        """Bounds are a setting: they fail as they are parsed, before the
        catalog is opened."""
        out = tmp_path / "scored.jsonl"
        code, stdout, err = run_cli(
            capsys, "score-importance", "--catalog", tmp_path / "absent.jsonl",
            "--out", out, "--bounds", "2020,1950,1,100,1000")
        assert (code, stdout) == (1, "")
        assert err == ("error: bounds '2020,1950,1,100,1000' from flag "
                       "--bounds: linear bounds need lo < hi, got lo=2020 "
                       "hi=1950\n")
        assert not out.exists()

    def test_bad_bounds_for_a_feature_no_title_carries(self, capsys,
                                                       tmp_path):
        """No title has a year, so no year is ever scored; the reversed
        year pair is still refused."""
        catalog = tmp_path / "catalog.jsonl"
        catalog.write_text(dumps({"entity_id": "tt1", "name": "A", "rank": 3,
                                  "rating_count": 4}) + "\n",
                           encoding="utf-8")
        out = tmp_path / "scored.jsonl"
        code, stdout, err = run_cli(capsys, "score-importance", "--catalog",
                                    catalog, "--out", out, "--bounds",
                                    "2020,1950,1,100,1000")
        assert (code, stdout) == (1, "")
        assert err.startswith("error: bounds '2020,1950,1,100,1000' from "
                              "flag --bounds: linear bounds need lo < hi")
        assert not out.exists()


MEMORY_EXTRA_TITLES = 20_000
MEMORY_SLACK_KB = 2 * 1024


def scored_line(entity_id, score):
    return dumps({"entity_id": entity_id, "release_year_score": score,
                  "rank_score": score, "rating_count_score": score,
                  "importance": score}) + "\n"


@pytest.fixture(scope="module")
def relevance_inputs(tmp_path_factory):
    """40 CTR pairs over 20 titles; scored file A holds those titles, B
    holds them plus 20,000 titles no pair names."""
    out = tmp_path_factory.mktemp("relevance")
    (out / "ctr.jsonl").write_text("".join(
        dumps({"query": f"q{i % 8}", "entity_id": f"tt{i % 20:07d}",
               "nimp": 30, "nclick": 15, "ctr": 0.5}) + "\n"
        for i in range(40)), encoding="utf-8")
    named = [scored_line(f"tt{i:07d}", 0.5) for i in range(20)]
    (out / "a.jsonl").write_text("".join(named), encoding="utf-8")
    with open(out / "b.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(named)
        fh.writelines(scored_line(f"tx{i:07d}", (i % 97) / 97)
                      for i in range(MEMORY_EXTRA_TITLES))
    return out


@needs_vmhwm
def test_build_relevance_peak_follows_ctr_pairs(relevance_inputs, tmp_path):
    """Only the importances the CTR pairs name reach the merge."""
    peaks = [peak_kb("build-relevance", "--ctr", relevance_inputs / "ctr.jsonl",
                     "--scored", relevance_inputs / name,
                     "--out", tmp_path / f"{name}.qrels")
             for name in ("a.jsonl", "b.jsonl")]
    assert peaks[1] - peaks[0] < MEMORY_SLACK_KB, peaks
    assert ((tmp_path / "a.jsonl.qrels").read_bytes()
            == (tmp_path / "b.jsonl.qrels").read_bytes())


@needs_vmhwm
def test_score_importance_holds_no_scored_list(tmp_path):
    """Scoring 20,000 titles peaks no higher than excluding all of them:
    each ScoredTitle is written as it is made."""
    catalog = tmp_path / "catalog.jsonl"
    catalog.write_text("".join(
        dumps({"entity_id": f"tt{i:07d}", "name": f"Title {i}",
               "release_year": 1950 + i % 70, "rank": 1 + i}) + "\n"
        for i in range(MEMORY_EXTRA_TITLES)), encoding="utf-8")
    argv = ["score-importance", "--catalog", catalog,
            "--bounds", "1950,2020,1,20000,1000"]
    peaks = [peak_kb(*argv, "--out", tmp_path / f"{policy}.jsonl",
                     "--missing-feature-policy", policy)
             for policy in ("exclude_title", "default_score")]
    assert peaks[1] - peaks[0] < MEMORY_SLACK_KB, peaks
    assert (tmp_path / "exclude_title.jsonl").read_bytes() == b""
    assert len((tmp_path / "default_score.jsonl").read_bytes().splitlines()) \
        == MEMORY_EXTRA_TITLES


def pinned_relevance(seed=8):
    """(ctr, scored) JSONL texts. 60 scored titles in shuffled id order,
    about a third below the default min_importance, 20 of them named by no
    CTR pair; 120 CTR pairs over 15 queries in shuffled order, some naming
    one of 10 titles that were never scored."""
    rng = random.Random(seed)
    ids = shuffled_ids(rng, 70)
    scored_ids, unscored = ids[:60], ids[60:]
    scored = "".join(scored_line(entity_id, round(rng.random(), 3))
                     for entity_id in scored_ids)
    named = scored_ids[20:] + unscored
    pairs = []
    for q in range(15):
        for entity_id in rng.sample(named, 8):
            nimp = rng.randint(25, 200)
            nclick = rng.randint(0, nimp)
            pairs.append(dumps({"query": f"q{q}", "entity_id": entity_id,
                                "nimp": nimp, "nclick": nclick,
                                "ctr": nclick / nimp}) + "\n")
    rng.shuffle(pairs)
    return "".join(pairs), scored


# sha256 of the generated (ctr, scored) inputs, then, per sidecar flag, of
# the qrels, the sidecar and the summary, with every path relative.
RELEVANCE = ("1d3f27afcf0bf00f99c38a8682d2d1bff9171a01df0e586962c91b7cf9771356",
             "25760380c124de571bf20b1bc46d9fc73e5229ac70c619dd94eed6bbbd7dbff1")
QRELS = "3dcdbc22c4b562afd29b5307d573937507ca4b7da74e839e2e627c742d15b820"
SIDECAR = "bf24b072f66ba56c70981cb8db57dca1a9ce23143809e8365090ae5e9dd53242"
BUILD = {
    (): (QRELS, SIDECAR,
         "b3123abbe09a386e3a39a08f20e7dd49cab9359357d43cc66a5bf0b296932144"),
    ("--provenance", "./side.jsonl"): (
        QRELS, SIDECAR,
        "dafdd738d61ce549f32c02f85d12b6b52776da643093882d2378ec7a99ef6e44"),
}


class TestBuildRelevanceBytes:
    @pytest.mark.parametrize("flags", list(BUILD))
    def test_output_sidecar_and_summary(self, capsys, tmp_path, monkeypatch,
                                        flags):
        monkeypatch.chdir(tmp_path)
        for name, text in zip(("ctr.jsonl", "scored.jsonl"),
                              pinned_relevance()):
            (tmp_path / name).write_text(text, encoding="utf-8")
        assert tuple(sha256((tmp_path / name).read_bytes())
                     for name in ("ctr.jsonl", "scored.jsonl")) == RELEVANCE
        code, stdout, err = run_cli(capsys, "build-relevance",
                                    "--ctr", "ctr.jsonl",
                                    "--scored", "scored.jsonl",
                                    "--out", "qrels.jsonl", *flags)
        assert (code, err) == (0, "")
        sidecar = "side.jsonl" if flags else "qrels.provenance.jsonl"
        assert (sha256((tmp_path / "qrels.jsonl").read_bytes()),
                sha256((tmp_path / sidecar).read_bytes()),
                sha256(stdout.encode())) == BUILD[flags]
