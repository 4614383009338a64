"""Golden outputs: the criterion-8 command list must keep writing exactly
the bytes it wrote before the columnar long table.

The digests were frozen from the row-per-word implementation. A change that
moves one byte of one artifact, manifests included, fails here; refactors
prove they preserve output by this test, not by approximate comparison.
"""

import hashlib

from test_acceptance import run_determinism_commands, write_determinism_fixture

GOLDEN_SHA256 = {
    "bg.manifest.json": "4daae6e1b712b7c5238040d7a38e36065b7b5a1631c3529d34e80830fa6ffe2f",
    "bg_conditional.csv": "a1b9719da094cfc8b7597631825944f72a6a23b4c0d0856c9134c642e95e66d1",
    "bg_coverage.json": "8742f69aacb8e3d2eaaeac4214b314836fc5bd7617c3244bea717788ebc9c84f",
    "bg_entropy.csv": "d3652721d9a1c43ba023f774220f0a8d01735bfc7b7646635dfa61c9c05be1a6",
    "bg_weighted.csv": "815689067404bdded22e18d91a4adb37e7f01a42a02f23e0ffdd2936f9a4a645",
    "c.tsv": "4a5d6cdab6c581c0efbc3cd97f29ba008a514dacd750f60b59c5ef00a14a96d0",
    "c.tsv.manifest.json": "6a63f51804d310d494dfb980a6c63e9822d3b65202b76cf85cf771cc9173aefe",
    "grid.tsv": "47dc964491f26097d1096bf6374d174191a9ecc789ba8217925c5b7e95cb7213",
    "grid.tsv.manifest.json": "ecaa968ba796d7fbe62d22899f2e5bca8785b537931943244e6df0526b887ef1",
    "meta.tsv": "f421097af298badc9a1c7d7f86eff2f7bcc0a0d0ab3246339e3bfa3bded4c0fa",
    "mn.tsv": "d38581644452fe4f2497eeb926d0f07d93ef709d046b2d3fa0eb2de596b5f5d0",
    "mn.tsv.manifest.json": "4046b4150e08ff32ed9b5a8dea35904d1059789210667f444f283924e744d320",
    "mx.tsv": "ae1c32a1e0b2453408fab75827dbb4adf3002491f454cc8e058b30ff07409e6d",
    "mx.tsv.manifest.json": "d2435ff3e53ad636024c0022f765a9e2a4e1cf72aedc59e5781d5762f34aee13",
    "p.tsv": "03d75cc7245214527e1b294e981f41f48cff32113f110fdb9ec23e2b3dd47d7d",
    "p.tsv.manifest.json": "0e282d6e3004d4617cea06b1197f3a7d4e2038d845b7048d71cefaab07dc2001",
    "page.txt": "571a196405f3765477d5e162d6af56bb52b4bc5a077e175d6aa135204e7c24a6",
    "plain.txt": "f0acc6cb4219e9d82a81ffd94d19683052a52f4bd40f434bbb3370a31fe3b87f",
    "s.csv": "f3c1d804a9707aa9fa9c501035e3098c5fbe4459ba906ba843d52c26032c1139",
    "s.csv.manifest.json": "e4e741249b7896679e9351a1d182843f36ce3c140f62b1778c12125524946661",
    "s.json": "cbbb6ecf072990f08da632589a36e2681e76f54b565fa945f70e8a2a72344ace",
    "s.json.manifest.json": "ff85ee6ef6dd86f6f2fcfe7824618a382da5c11fc3a9f875f427f66c1d03a4b0",
    "sp.tsv": "f125084ebf55c146df8c4ff927449bf6cb036ce949ac6833d07203172922d93d",
    "sp.tsv.manifest.json": "04cb344a4859932fa80ee3fd76c45d22852cb46880f8960fc7b9ed98900015e5",
    "stats.json": "a847a312955233176d02d930b735c2d35cac7a444f7af99c28519d2b63408e39",
    "stats.json.manifest.json": "fa9eb6f6cac5a18b18fa79d4d6f3e34e9565470f19be6eb383fdc0c4db7e380d",
    "t.tsv": "3cef88acf031aabe0a3de1fb82fdde3e8dd94d01b4fbe771ec2b1475e180fcb7",
    "t.tsv.manifest.json": "fe56455c25837b88ce85cdfde95fa73dc6ca0e91f78798deaf3fc5dc9396c403",
    "v.json": "af8e1715b3b01d786ba7bd97531447a78a44a2cb8e809dc8d5a1796a3ce06ddb",
    "v.json.manifest.json": "399258445accbdde0dd9a04cb4f3048fa9ab151187ce23cfb3398e6ebf30ecb7",
}


def test_every_artifact_matches_its_golden_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_determinism_fixture(tmp_path)
    run_determinism_commands()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir() if p.is_file()}
    assert digests == GOLDEN_SHA256
