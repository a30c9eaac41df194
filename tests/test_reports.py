"""The command-line reports stay byte-identical across refactors.

Each command line of `test_reach.COMMAND_LINES` and each `clouds` op of
`perfbench/workloads.py` (on `perfbench/specs`, seed 1) runs in process.
Its report, without `timing` and `versions`, is hashed and compared with
the digest that the report had when the list below was recorded.  A change
that alters a report on purpose records the new digest here and names the
report in CHANGES.md.
"""
import contextlib
import hashlib
import io
import json
import runpy

import numpy as np

from meandim import cli
from test_reach import COMMAND_LINES, ROOT, SPECS

BENCH_SEED = 1
CLOUDS_OPS = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))[
    "WORKLOADS"]["clouds"].ops

# label -> sha256 of the report without timing and versions
DIGESTS = {
    "golden entropy --m-max 6 --folner boxes":
        "34a6b83e8d0c6231a1039e9da1e88cbfeddd329beffab49dd418f59e2014089a",
    "golden_patterns entropy --m-max 3 --out {out}":
        "ed74440082c16e31a268292eef42bb02224bf805de9a3eb5743f026677033deb",
    "hard_square entropy --m-max 2":
        "e40c8b8ea21ef98ef7ff22d2b9843f3465c544f323653ef389cf9afc863ece27",
    "hard_square entropy --m-max 9 --folner boxes":
        "a375ad42e91b6ebbff974406323c7914f30a3073755934dd05b28435a889d5c1",
    "golden_b_shift entropy --m-max 2 --w 0.5":
        "bbbacaebefff715ed590cb5dd8589a2e110235b5ef7a953ed2f4593ce7eda65c",
    "mcmullen_shift entropy --m-max 1 --w 1 --folner boxes":
        "6d1100a0e2442d9b0306dbe01bbbea39db39242d0e6e9a18d7a1bc57d3e3147d",
    "mcmullen carpet-dims --m-max 1 --l-max 2":
        "3e778494bbe0817f81939116875017e580e157be56d2cc22aa50736ac1baa797",
    "golden_b carpet-dims --m-max 2 --l-max 2 --folner boxes --w auto":
        "be34c51be9605d0a99bf50169054c377006aef071f6f86181200473c7b54e46e",
    "selfsim selfsimilar-bound":
        "5753a175b6aa387ce9414f08581ba886b052139d937c1df8655ca999faef2f03",
    "selfsim selfsimilar-probe --window-sizes 512":
        "ae4ff7e55b9480b5ecf4b0d2805adefce5187d6e45dc2aa24c64240483e0d04f",
    "homog homog-entropy --m-max 2 --depths 2 3":
        "e07ddebdd5781e158563d84084ca35acd9344779b59046e54a94c01d37ecfa64",
    "homog homog-probe --eps-grid 1/8 --folner boxes":
        "2d552c08bbfe88fdc93566e357c0e561e3b54fa2e6e5125fed336458327c847b",
    "kset kg-experiment --m-max 1 --eps-grid 1/10,1/100":
        "f26f10f0e7af3cb3bc0eede94bc9bd67d06f0e70d7064b4bb82bd837241698e7",
    "kset2 kg-experiment --m-max 1 --eps-grid 1/10,1/100":
        "a5dd7745636d12f939f9aafa48c11c73dd8e3731ac9bcf9796eb1ad6a7e1be4c",
    "unit kg-experiment --m-max 1 --eps-grid 1/10,1/100":
        "30efd341f66d0022c441f0e56c1c1c7f4ace03d3c2f1023df1b09a0e2fd75fbb",
    "kset kg-mass-demo --k-list 2,4 --seed 1":
        "fa3bbbb06dc1563be397212c62cb2d2fbf65031f2c974f833f2dc46ce8d07a6d",
    "golden validate":
        "8d3b64ef7a59339f8e7d4b3f7a809f0054cb90a095c7a1912ad6cd3e64e75efe",
    "clouds golden-b-carpet":
        "c7e3d592614b49e1f53142a32ca96f2ff4d33f27b745b95a39cd74b7aed562df",
    "clouds mcmullen-carpet":
        "6f70c8be9b7ee75b83a72e359fb85b8c7b3256c964108d5f30703057a96b80d2",
    "clouds homogeneous-probe":
        "814a5380077fc7982b9d5bd1657c3cf13e65592901fd523e82e84a1f51663be9",
    "clouds selfsimilar-probe":
        "6ef91924552f5ff1338f0f475a69d92922272d4c3c1908eeb922fc4c7d797290",
}


def _label(spec, argv):
    return " ".join([spec] + argv)


def command_lines(tmp_path):
    """(label, argv) per command line, in order: the `test_reach` lines on
    specs written to `tmp_path`, then the `clouds` ops, labelled
    `clouds <op>`, on the benchmark's own spec files."""
    for name, doc in SPECS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    for spec, argv in COMMAND_LINES:
        yield _label(spec, argv), (
            [argv[0], "--spec", str(tmp_path / f"{spec}.json")]
            + [a.replace("{out}", str(tmp_path / "out")) for a in argv[1:]])
    for op in CLOUDS_OPS:
        yield f"clouds {op.name}", op.command(
            str(ROOT / "perfbench" / "specs"), BENCH_SEED)


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def report_texts(tmp_path):
    """(label, report text without `timing` and `versions`) per command
    line, in order.  Each report is read as strict JSON: a bare NaN or
    Infinity token raises."""
    for label, args in command_lines(tmp_path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(args)
        report = json.loads(out.getvalue(), parse_constant=_no_constant)
        for key in ("timing", "versions"):  # `validate` writes neither
            report.pop(key, None)
        yield label, cli._report_text(report)


def test_reports_match_their_recorded_digests(tmp_path):
    texts = dict(report_texts(tmp_path))
    assert sorted(DIGESTS) == sorted(texts)
    for label, text in texts.items():
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == DIGESTS[label], f"{label}:\n{text}"


def _numpy_scalars(value, path="report"):
    """The paths of the numpy scalars in a report, keys included."""
    if isinstance(value, np.generic):
        yield path
    elif isinstance(value, dict):
        for key, item in value.items():
            if isinstance(key, np.generic):
                yield f"{path} key {key!r}"
            yield from _numpy_scalars(item, f"{path}[{key!r}]")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _numpy_scalars(item, f"{path}[{i}]")


def test_no_report_carries_a_numpy_scalar(tmp_path, monkeypatch):
    # `_report_text` encodes with `default=str`, so an np.int64 count would
    # be written as a quoted string; every report is walked before that
    found, encoded = [], []

    def checked(report):
        encoded.append(report)
        found.extend(_numpy_scalars(report))
        return text(report)

    text = cli._report_text
    monkeypatch.setattr(cli, "_report_text", checked)
    for label, args in command_lines(tmp_path):
        before = len(encoded)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(args) == 0, label
        assert len(encoded) > before, label
        assert found == [], label


def test_carpet_dims_results_do_not_depend_on_the_seed():
    # the fiber-measure probe reports exact moments: no command draws for
    # carpet-dims, so its results are the same text at every --seed
    for name, extra in (("mcmullen", []), ("golden_b", ["--folner", "boxes"])):
        texts = set()
        for seed in ("0", "1", "7"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["carpet-dims", "--spec",
                                 str(ROOT / "perfbench" / "specs"
                                     / f"{name}.json"),
                                 "--m-max", "1", "--l-max", "2", "--seed",
                                 seed] + extra)
            assert code == 0
            texts.add(cli._report_text(json.loads(out.getvalue())["results"]))
        assert len(texts) == 1, name
