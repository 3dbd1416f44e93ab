"""Byte identity of the CLI: sha256 of stdout on a fixed ladder of inputs.

The digests pin the exact output bytes of the table-of-marks, ring,
ghost, idempotent and subgroupoid commands, so a refactor that changes
any byte of their output fails here.
"""

import hashlib

import pytest

from groupoids import cli

GOLDEN = {
    ("trg:S3:2", "marks --format csv"):
        "06ec25b8ee1dfeb058bd7bdcaeb5ba6d7a8e89de5622c887861ecf03b9309249",
    ("trg:S3:2", "marks --format json"):
        "42673771876a604e3f3321cb11dd9962f6ea9078ed63cacdd8b2a1e235e3b038",
    ("trg:S3:2", "marks --format pretty"):
        "8349f3203131584813fd5f73327d1b8306579794d6ca06f1e3c925a5875fdf06",
    ("trg:S3:2", "ring --format pretty"):
        "7f53224bd626b8b47b2d30d609de5f6eba64113e10d12d3fdb95dbd501d0fc35",
    ("trg:S3:2", "ring --format json"):
        "0aa54b4e5a550e2c1cb78eeb0b4fca073d8cea7797fb9d247b77774744f055ff",
    ("trg:S3:2", "ghost --format json"):
        "70dfab1f4230d31e6d32413d68e2a81fb92a8fd7e0b5e048f9b8bef850264ec7",
    ("trg:S3:2", "idempotents --format json"):
        "1ebbd611e76dec266b51605a53b258268e5428a019005643bfad72965c465f46",
    ("trg:S3:2", "idempotents --format pretty"):
        "2a8b64106db7abfda4c9df3e043554a43024428a82d20877ced4d7e4a4eda634",
    ("trg:S3:2", "decompose-ring"):
        "61a3a8058175fe7ef0f0ace526f5eb9711206e4cd43779c043a5729bd7f0f2a0",
    ("trg:S3:2", "subgroupoids"):
        "d96794ab2aed8d216c4ab077ed5eb5edc1ae4e811fd54c3f026a36dcd68895d3",
    ("trg:D4:1", "marks --format csv"):
        "83194136603280f0a9542a06d2be9d40b673941801f28b8c8e493f4880846766",
    ("trg:D4:1", "marks --format json"):
        "ba32ee7672309bfffe7664296387ec2486c18e1936589dbb7bfa98f8f076d666",
    ("trg:D4:1", "marks --format pretty"):
        "22876e3fc88d10519c67821d6c62d24bfb9cc87ed5081181d7c77b0b2bc1d3aa",
    ("trg:D4:1", "ring --format pretty"):
        "352626cc02eac5d09272a553d5fd192c6d941058e44c86dc69eb1022717dfe15",
    ("trg:D4:1", "ring --format json"):
        "a52e1424ad1665d1c7259176204050f7355fcbeb7b98f3e7da282411c030d25c",
    ("trg:D4:1", "ghost --format json"):
        "fd148f64051a9a60d806c8338c3e0db2bf0b9fc56ea379d35b03b90a054f16ea",
    ("trg:D4:1", "idempotents --format json"):
        "1e69ce75b34cf7138b462d039f9d95ae3212b70c7972045a81022f4762c49528",
    ("trg:D4:1", "idempotents --format pretty"):
        "cff386a321abd29a80c455d13374233e23240ff2c6bf399bd35acaf8df7a6afa",
    ("trg:D4:1", "decompose-ring"):
        "9e194f432d434258db733eb061a12826c292f13fe106e1e589543daad324cbb1",
    ("trg:D4:1", "subgroupoids"):
        "36e55a21f09d28c893e451b73aa8bc628bbd11c73f23d991bb8e6b10221dc62e",
    ("coprod:trg:Q8:1,trg:C6:1,pair:2", "marks --format csv"):
        "07be9e3ddc9fad4c56aad13d7756748e80ae1202417d527ea789c041b5d2e57d",
    ("coprod:trg:Q8:1,trg:C6:1,pair:2", "marks --format json"):
        "d142e9b74db2ad55d30dac586fbe9d9aa273f8468ca16a401a4ffb81f6dd30d6",
    ("coprod:trg:Q8:1,trg:C6:1,pair:2", "marks --format pretty"):
        "ccaff58ad8732718cad9ed62475003025482a29b6660b8335664155ef632556b",
    ("coprod:trg:Q8:1,trg:C6:1,pair:2", "ring --format pretty"):
        "5e9066d90b13b95c639f696ff89c7ec0e5c8e0d739e291f96edd54ee246bd376",
    ("coprod:trg:Q8:1,trg:C6:1,pair:2", "ring --format json"):
        "a8e8a6fd51d2f328a8b76dad03011939aaec1777ccd70da56ed942b3de46ed7b",
    ("coprod:trg:Q8:1,trg:C6:1,pair:2", "ghost --format json"):
        "cdfc04b6d0faa154f24ff6ddaae37cb3dbacb52eee7cbfcdc725db79ff9129d8",
    ("coprod:trg:Q8:1,trg:C6:1,pair:2", "idempotents --format json"):
        "5f184b0a9173f2fefcea5717f04f69705851dd85ee2326db20e08015e46b3a78",
    ("coprod:trg:Q8:1,trg:C6:1,pair:2", "idempotents --format pretty"):
        "f9d80cdb0de0d66331ac0a9f4a21a05b4fa8779a8bd808a69aa6fb2d72921fd7",
    ("coprod:trg:Q8:1,trg:C6:1,pair:2", "decompose-ring"):
        "3f30a5a51f4711253ab810273f78b6e533f66746aad86fe35d1c380d73a67fc9",
    ("coprod:trg:Q8:1,trg:C6:1,pair:2", "subgroupoids"):
        "9896cdff9604f3523ce249b526e49e7fe37f01dcfc199918479fa75b70ef8b73",
}


@pytest.mark.parametrize("spec,command", sorted(GOLDEN))
def test_stdout_digest(capsys, spec, command):
    assert cli.run(command.split() + ["--gen", spec]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[(spec, command)]
