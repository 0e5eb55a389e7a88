"""Byte stability of every `closeknit` command on every file in `instances/`.

Each file is solved in modes full, proof and both, and once with
`--trace` in the file's own mode.  `GOLDEN` holds the exit code and the
sha256 of stdout for each run, recorded on the code as it stood before
the set kernel's single-pass rewrite (one-gather permutation images and
an orbit closure that records the action table as it goes).

`OTHER_GOLDEN` does the same for `check` (default `--samples`),
`oracle --bound 2` and `eval-delta` (default `--n-max`), recorded on the
code as it stood before the start-up change (lazy package exports,
per-command imports, plain classes in place of dataclasses).  The
`check` rows of planes_f2_3, s3, s4_sylow and set6 were re-recorded when
`check` began counting each distinct sampled element and pair once: only
`checked_elements` and `checked_pairs` changed in those outputs.

A change that keeps behaviour keeps every row; a change that means to
alter an output must re-record its table and say why.
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


OTHER_RUNS = {"check": ["check"], "oracle": ["oracle", "--bound", "2"],
              "eval-delta": ["eval-delta"]}

OTHER_GOLDEN = {
    ("broken_abstract.json", "check"): (2, "6189d089e2bff0136413cbc1e15908effb1002127c6abbffeafcabd662dc69a0"),
    ("broken_abstract.json", "oracle"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("broken_abstract.json", "eval-delta"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("diamond.json", "check"): (0, "c431b8956046536ece6952b9c65c269a40b8b1447c8920b8a7a97b46f8ddac95"),
    ("diamond.json", "oracle"): (0, "51937acfe3d0e5e46fbaeb19ff421d0273af49ee4a2efbf7990303e2b0ab8fa5"),
    ("diamond.json", "eval-delta"): (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("metric_demo.json", "check"): (0, "9e28571fff5e29595c8efbf713c53a41410be63e01bbaf8a998fc63710610403"),
    ("metric_demo.json", "oracle"): (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("metric_demo.json", "eval-delta"): (0, "60cc73a6a66ec3fba3efe5fb134cda2a9542ae6301bcdaec9b60b8b5baf0df1a"),
    ("planes_f2_3.json", "check"): (0, "cea7c9a00393e712edc328cd83b719d8ccc85a2ea4b36c7112c50e609ae43373"),
    ("planes_f2_3.json", "oracle"): (0, "09cf86a769a2ca7f9247c1daab0c5b4201047c29bcbd6a8654f3f6cb3627702f"),
    ("planes_f2_3.json", "eval-delta"): (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("s3.json", "check"): (0, "c525de1daecd2f28ddfd1418194847b0bf76e03a0b3a4b5f6343866e7fd60eeb"),
    ("s3.json", "oracle"): (0, "209508889d6a01ac4e1e2d4a01b5bcb4fe59cb2195193127cf98fa67c42ea968"),
    ("s3.json", "eval-delta"): (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("s4_sylow.json", "check"): (0, "6b0276cbe6da23179fc0ff17584738ce0e810e374353bf67446585a05de8f4a7"),
    ("s4_sylow.json", "oracle"): (0, "e53106a70328048319f69716ecc09b6cd720f1dd3b57f8a7115b3b69a5107261"),
    ("s4_sylow.json", "eval-delta"): (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("set6.json", "check"): (0, "eee95b4e0ce3b645c510a5ad6001ecf9a2d7f181eb71d042089944c580809c54"),
    ("set6.json", "oracle"): (0, "88f198e704b89273feab6b2ea4ec7a8a033a7b92daa938456ce20a821879e312"),
    ("set6.json", "eval-delta"): (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


def _run_digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _assert_covers_every_instance_file(table, runs):
    files = {p.name for p in INSTANCES.glob("*.json")}
    assert {name for name, _ in table} == files
    assert {run_name for _, run_name in table} == set(runs)


def test_table_covers_every_instance_file():
    _assert_covers_every_instance_file(GOLDEN, RUNS)


def test_other_table_covers_every_instance_file():
    _assert_covers_every_instance_file(OTHER_GOLDEN, OTHER_RUNS)


@pytest.mark.parametrize("name,run_name", sorted(GOLDEN))
def test_solve_output_is_byte_stable(name, run_name):
    argv = ["solve", "-i", str(INSTANCES / name)] + RUNS[run_name]
    assert _run_digest(argv) == GOLDEN[name, run_name]


@pytest.mark.parametrize("name,run_name", sorted(OTHER_GOLDEN))
def test_other_command_output_is_byte_stable(name, run_name):
    command, *flags = OTHER_RUNS[run_name]
    argv = [command, "-i", str(INSTANCES / name)] + flags
    assert _run_digest(argv) == OTHER_GOLDEN[name, run_name]
