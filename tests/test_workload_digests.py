"""The benchmark workloads' netlists stay byte for byte what they were.

The inputs are the documents of perfbench/workloads.py (read, never
changed), written to a temporary directory and swept through
`netforge.cli.main` over seeds 1-3 in SPICE, Spectre and the JSON IR. The
digests pin the text of every variant, so a faster render path or IR writer
has to produce the same bytes on two large circuits, not only on the small
golden ones.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from netforge.cli import main

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# sha256 of each variant file, by workload and dialect, then file name
DIGESTS = {
    ("chain_mc", "spice"): {
        "chain_mc__TT__s1.sp": "6619341ccac10d3add7d17ecea22037f391ef1e961d46925a854de9a3854d3d7",
        "chain_mc__TT__s2.sp": "1706b26175a89fee47361a3735900a47e98303105fb0d57b978d62f7c017ee51",
        "chain_mc__TT__s3.sp": "1c36d3e8b95a946377914bde89962489ad3e17a2b7b251cc953490d2ef0cedeb",
    },
    ("chain_mc", "spectre"): {
        "chain_mc__TT__s1.scs": "8538448050eba8822d027ce8fc1976230ceff5f46f9eb2b44c5a2af322e27cbb",
        "chain_mc__TT__s2.scs": "f320dd6a3dee63c5fb0ce705f0ff86df8980348b638162fbc85be1b335046306",
        "chain_mc__TT__s3.scs": "437a133f137a9ea0fa04e48b92295ccf4f4478ab3e71dd6ae139461043d20d4c",
    },
    ("chain_mc", "json-ir"): {
        "chain_mc__TT__s1.json": "02d1265f10cef0f9360a715dbfbfa9773055753d27cea89546c79a4a667d7f88",
        "chain_mc__TT__s2.json": "ec4a969586f5910563ea3e701103d88be31515b3c6a5bf8a57b8936b20802eae",
        "chain_mc__TT__s3.json": "edd2a0b424724c202e2b7e639034b5d77f2e6881400a124dfd1f4c2400edc40c",
    },
    ("ro_sweep", "spice"): {
        "ro_sweep__FF__s1.sp": "91c6d94d6de80e045d7c74135a3bbdfe0cd29b3d81729f393c49382523cb2a25",
        "ro_sweep__FF__s2.sp": "cba2be1fd38996cd5671e26be54946f644d5ba7f07b56e9ab6fca110a7fddd40",
        "ro_sweep__FF__s3.sp": "d0dd8ab3b625e521c3197593b6610020408c5faac07d875d783596005feb6fbc",
        "ro_sweep__TT__s1.sp": "4a700e1195ca627b75875ac36a7379459e4b88e7cb2086b139acbfe90bc0ac88",
        "ro_sweep__TT__s2.sp": "225f45b56c459b7e602585cb3e542ab87bb44815304351071cb99093a6d7dfbc",
        "ro_sweep__TT__s3.sp": "a0f6e600622dd265ea00feffdcb76196c126ada14a7e848ac99c445095c3a0b5",
    },
    ("ro_sweep", "spectre"): {
        "ro_sweep__FF__s1.scs": "94e25f2293d0782add02046a6f41574bfb559b317b35d8c1f9aad59ddb7a0f66",
        "ro_sweep__FF__s2.scs": "6e68674e78ebe5a4212e1f3d0c8af4375af48b66cc0fea78c32506628d5663e3",
        "ro_sweep__FF__s3.scs": "3c29eeaacfde97aca243f69d0ac9b900de12c26c87bec79b040b9d98468af026",
        "ro_sweep__TT__s1.scs": "62c611cfc33f28865ddd33015ef54082faafe6b588183a06b566890f90d6cf27",
        "ro_sweep__TT__s2.scs": "5bfd5686c4180b5f559a62add7236e5f3420b38e53fd981579f0a2249229a266",
        "ro_sweep__TT__s3.scs": "29ab896f65588023f1b5bd209e21b99d5fd0703d8b1e3ef3fdd514a746b05553",
    },
    ("ro_sweep", "json-ir"): {
        "ro_sweep__FF__s1.json": "8e729650526e49b9f442801e48bcf3ee6c449d9a20141567e401358d92fefbb3",
        "ro_sweep__FF__s2.json": "d5cb16d1b878f2b8dddbaa04ee7cd16d621e163746ca5f02d2c50e3305e6696a",
        "ro_sweep__FF__s3.json": "cce74ea2c8628d000855d61dcdae60dd4813cfaf6a1fed58742dc067eee9cdeb",
        "ro_sweep__TT__s1.json": "d02c28f2df7e2069c7dbd39ce20f8873312f4936a5526ced88428099890c134c",
        "ro_sweep__TT__s2.json": "d8c052c071f604a13ff59bc30f88361c7778ea7829c53c535e19902224f71b96",
        "ro_sweep__TT__s3.json": "ea52de97fabd3bfa023cf4f05d6c3c6609f3ca93c78ec3611c9f453d9f37ee90",
    },
}


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digests(tmp_path, workload: str, dialect: str) -> dict:
    workloads = _load_workloads()
    inputs = workloads.spec(workload, 1)  # the document seed, so seeds 1, 2 and 3
    doc = workloads.write_inputs(inputs, tmp_path / "in")
    out = tmp_path / "out"
    corners = [arg for corner in inputs["corners"] for arg in ("--corner", corner)]
    args = ["sweep", str(doc), *corners, "--seeds", "3", "--dialect", dialect, "--out", str(out)]
    assert main(args) == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.name != "manifest.json"
    }


@pytest.mark.parametrize("dialect", ["spice", "spectre", "json-ir"])
@pytest.mark.parametrize("workload", ["chain_mc", "ro_sweep"])
def test_workload_netlists_keep_their_bytes(tmp_path, workload, dialect):
    assert _digests(tmp_path, workload, dialect) == DIGESTS[workload, dialect]
