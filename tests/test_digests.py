"""Golden sha256 digests of CLI output.

Every refactor of the search must leave these bytes as they are: table
stdout, streamed records, and the record file and every checkpoint of a
budget-aborted run and its resume.  A changed digest names the output
that moved; compare it against the parent commit to see how.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from stampbase import cli, search


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(*argv) -> tuple[int, bytes]:
    """(exit code, stdout bytes) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue().encode()


TABLES = {
    1: "97960821401a69af0325df876c8dcc58dc9c8ae9ddbcac958d7f9e7ea50bf004",
    2: "96112a355b1da0182f8d2f3d3c95c654186000a4b7a2b04b2a7b7f70f08749c5",
    3: "0e80f5ec477617abbab80c7d2aefc05ffde37ac37c01f76a0945fe05b859cb19",
    4: "60b33e396d1d3d28cf2d2edb7397d7a62e3b22430f1c2290379c84530830038e",
    5: "dd4fe807e7609b57e63336ea5351effe17e379187c5f16ee7f7bee2544c73a38",
    6: "45bd837b4733a22ac37db964dfd888d82e211be62d8e786c162de46a71c96720",
    7: "77330b4d8d49c5f241c66156c3efcb7cd8bd0633bf64648958b026d70c2df2af",
    8: "473e9dd227eb035a3bbe3b9f085f750aaa706d17aab24fb007a73a3313367ea9",
    9: "dd5244184fd1541a91f8ed035e32817cc076d0915624eab967d241b75bcc45a4",
    10: "5d066a691eb36565848d1b7ea2dd003023a2b0efbca95179b4147400c0577255",
    11: "98a6ca14315a0497ddb59b942d11979706cac552963defccceeb5b7010ce3ef4",
    12: "1c3e03949c729325f9c1f415f893ec3d7967fd36cc5b92d44357fdfc82fcfc5c",
    13: "17ba409bbb31222539c70defd4e92a6b0b79e9d3b282b7fa778ab4b0d5bcba41",
    14: "15a80ff6e1740b59ad93ae2fb8503775c6a8d32290391f283dad183df5722991",
    15: "b239907f329af08d223fcd87ddfe39fbdb9c5d4580e24d3a3e1f6a4f2ef237a0",
}


@pytest.mark.parametrize("table, threads", [(t, n) for n in ("1", "2") for t in sorted(TABLES)],
                         ids=[f"{t}{suffix}" for suffix in ("", "-2-threads") for t in sorted(TABLES)])
def test_table_stdout(table, threads):
    code, out = run("tables", str(table), "--p-max", "12", "--threads", threads)
    assert code == 0
    assert sha(out) == TABLES[table]


# taken before the maximal-tail search classified its leaves in the kernel
EXTREMAL_P16 = {
    4: "9daa92ad775eb1cab16a41d6b6323fecdcb668581a5637f9b64f6fe02fed5665",
    7: "9a8ef856b85aab6611ea1f34ed3137cd687b81f75505dc6acff6c22e3b9f63e8",
}


@pytest.mark.parametrize("table", sorted(EXTREMAL_P16))
def test_extremal_table_at_p16(table):
    code, out = run("tables", str(table), "--p-max", "16")
    assert code == 0
    assert sha(out) == EXTREMAL_P16[table]


# the range grids and best-p segments up to k = 75, the element counts the paper works at
RANGE_K75 = {
    5: "985b86b1cd360b89d417f5a48bd19a77b8a8b8885837f4a2ab626f561fbe335b",
    6: "c01a599167f3e3e8e0aad5320345935cdf505f95c3e6b384a5d1123e5072314a",
    8: "2f8a3e91a923133db7775702fcc29fab2e541eea9fe1a2d403f4b2dd4b09939e",
    9: "db0d6966d218dc6877b89c71f41db910472466738dce9f68b8bbea1b2d3387f0",
}


@pytest.mark.parametrize("table, threads", [(t, n) for n in ("1", "2") for t in sorted(RANGE_K75)],
                         ids=[f"{t}{suffix}" for suffix in ("", "-2-threads")
                              for t in sorted(RANGE_K75)])
def test_range_tables_at_k75(table, threads):
    code, out = run("tables", str(table), "--p-max", "16", "--k-max", "75", "--threads", threads)
    assert code == 0
    assert sha(out) == RANGE_K75[table]


def test_classification_over_budget():
    # p = 10 has 501 nodes, so the run stops there with no table
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run("tables", "3", "--p-max", "10", "--node-budget", "300")
    assert (code, out) == (3, b"")
    assert err.getvalue() == "error: node budget exceeded: visited 301 > 300\n"


PLUS_10 = "b463fea665d79dccb037e023a54742715fc3d1847901f172549ceefbe7baeb63"


@pytest.mark.parametrize("argv, expected", [
    (["enumerate", "11"], "898f172e83851efd5c69c41c7523adc2b6b0e1e1425536bbad844e4bf829523b"),
    (["enumerate", "11", "--classify"],
     "4f3a1071f925749e581b7e2db24f4c9e7a170c629b7619d9c8615d0862e5aad7"),
    (["enumerate", "10", "--mode", "plus", "--threads", "1"], PLUS_10),
    (["enumerate", "10", "--mode", "plus", "--threads", "2"], PLUS_10),
], ids=["plain", "classify", "plus-1-thread", "plus-2-threads"])
def test_enumerate_stdout(argv, expected):
    code, out = run(*argv)
    assert code == 0
    assert sha(out) == expected


def test_aborted_and_resumed_files(tmp_path, monkeypatch):
    out, ckpt = tmp_path / "o.jsonl", tmp_path / "c.json"
    saved = []
    save = search.save_checkpoint

    def spy(path, state):
        save(path, state)
        saved.append(Path(path).read_bytes())

    monkeypatch.setattr(search, "save_checkpoint", spy)
    argv = ["enumerate", "11", "--classify", "--out", str(out),
            "--checkpoint", str(ckpt), "--checkpoint-every", "50"]
    code, stdout = run(*argv, "--node-budget", "300")
    assert (code, stdout) == (3, b"")
    aborted = {"records": sha(out.read_bytes()), "checkpoints": len(saved),
               "checkpoint_bytes": sha(b"".join(saved)), "last": sha(ckpt.read_bytes())}
    saved.clear()
    code, stdout = run(*argv, "--resume")
    assert code == 0 and not ckpt.exists()
    resumed = {"records": sha(out.read_bytes()), "checkpoints": len(saved),
               "checkpoint_bytes": sha(b"".join(saved)), "stdout": sha(stdout)}
    assert aborted == {
        "records": "a52cf46f342c3bbb9b16ec3eefc8f14b5bc854ed54e6e2fbf531aaa8f24e6fe0",
        "checkpoints": 5,
        "checkpoint_bytes": "4a33a3e5d2a59167b25eec8a945c8a950b4dbd1f95927417227c80301e5941b3",
        "last": "d770dfe20b0336a0a71047344645e5fb897f3668992f3b14fc7e4b3b57e7f7fd",
    }
    assert resumed == {
        "records": "cd62d3fb3adebcc56abb43a8cdd07ee62ac32a3fd445505ae5a5c17621221503",
        "checkpoints": 18,
        "checkpoint_bytes": "e03060d946e171366b7e83c9c0d843fee8f08b5ff0ac9359f546e5c49c78916f",
        "stdout": "ab930286be915a73898d45a444fea900a348ed3305e9ea786387d995b689f39e",
    }
