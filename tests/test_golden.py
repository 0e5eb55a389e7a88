"""Byte stability of `closeknit solve` on every file in `instances/`.

Each file is solved in modes full, proof and both, and once with
`--trace` in the file's own mode.  The table holds the exit code and the
sha256 of stdout for each run, recorded on the code as it stood before
the set kernel's single-pass rewrite (one-gather permutation images and
an orbit closure that records the action table as it goes).  A change
that keeps behaviour keeps every row; a change that means to alter a
certificate must re-record the table and say why.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from closeknit.cli import run

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

RUNS = {"full": ["--mode", "full"], "proof": ["--mode", "proof"],
        "both": ["--mode", "both"], "trace": ["--trace"]}

GOLDEN = {
    ("broken_abstract.json", "full"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("broken_abstract.json", "proof"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("broken_abstract.json", "both"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("broken_abstract.json", "trace"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("diamond.json", "full"): (0, "b08103bb18e8005404b3da66b4b8ad46aa31f0b1ce8111aa5a24fdc2403b8346"),
    ("diamond.json", "proof"): (0, "b08103bb18e8005404b3da66b4b8ad46aa31f0b1ce8111aa5a24fdc2403b8346"),
    ("diamond.json", "both"): (0, "0d99b67e2729b0e3fdf6988621ae6d7b24606a2668350cdcb4e938abb2045134"),
    ("diamond.json", "trace"): (0, "394ed2f0f2bd1308021920c1f85fd06e5b416c3494688331b7deffd6f3592064"),
    ("metric_demo.json", "full"): (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("metric_demo.json", "proof"): (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("metric_demo.json", "both"): (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("metric_demo.json", "trace"): (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("planes_f2_3.json", "full"): (0, "60f4965e7a9d6b72cba8849db102eb44287ec9936adfd40e88b5db6df2b59dad"),
    ("planes_f2_3.json", "proof"): (0, "60f4965e7a9d6b72cba8849db102eb44287ec9936adfd40e88b5db6df2b59dad"),
    ("planes_f2_3.json", "both"): (0, "39073a67ebac59f7280195f29d1dffda3265c642cb904aeba3f2c684d34700af"),
    ("planes_f2_3.json", "trace"): (0, "9f7f6df1445eb84e6074cc579afd3b9c11610b4058e2c99c5f1f4d1a3a46d4c8"),
    ("s3.json", "full"): (0, "b42646f46ff3e6f02e8029966c228b5eecc66251aefe883020f2be8c401942c5"),
    ("s3.json", "proof"): (0, "b42646f46ff3e6f02e8029966c228b5eecc66251aefe883020f2be8c401942c5"),
    ("s3.json", "both"): (0, "7c901742b3c5a8c3f414503ff04963915e6b9c09f6d5ab3d98a69564a283aaa4"),
    ("s3.json", "trace"): (0, "2119085bc814028f584a5e161ef084bc9b9a78cbf224b3345468f3be41b65a42"),
    ("s4_sylow.json", "full"): (0, "d316e2f01a16391039ee52454c124c3a6dcd39264ce6a086ca904200b565b90e"),
    ("s4_sylow.json", "proof"): (0, "d316e2f01a16391039ee52454c124c3a6dcd39264ce6a086ca904200b565b90e"),
    ("s4_sylow.json", "both"): (0, "54c2624b2388ced6c00b7092647897764cf5789339bfefe9f1e3fb5d2fee87da"),
    ("s4_sylow.json", "trace"): (0, "48a7cb28900bbcd02e2d9b66ab0c6e2e6fa07b6e8ab0157ba75663fa13dfe695"),
    ("set6.json", "full"): (0, "8f1dacfd8e8585a4bbc9b9aec18d999705f7b5cbbf7b0f4bf46946c3273bcc36"),
    ("set6.json", "proof"): (0, "8f1dacfd8e8585a4bbc9b9aec18d999705f7b5cbbf7b0f4bf46946c3273bcc36"),
    ("set6.json", "both"): (0, "eb6d8fe33bec367d5315ca4891113d29fad696218d61328566cb5b94656bfc94"),
    ("set6.json", "trace"): (0, "c18e46da603dc9bc8bfb738a5e1ccb89e2c194520345a0718b988589f742831c"),
}


def test_table_covers_every_instance_file():
    files = {p.name for p in INSTANCES.glob("*.json")}
    assert {name for name, _ in GOLDEN} == files
    assert {run_name for _, run_name in GOLDEN} == set(RUNS)


@pytest.mark.parametrize("name,run_name", sorted(GOLDEN))
def test_solve_output_is_byte_stable(name, run_name):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["solve", "-i", str(INSTANCES / name)] + RUNS[run_name])
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert (code, digest) == GOLDEN[name, run_name]
