"""SHA-256 pins of the CLI output that the golden files do not cover.

The golden files cover only `homology` with self coefficients; these
digests pin the rest byte for byte on every corpus instance: `homology`
with residue coefficients, over F2 and with `--alt-choices`, `kcomplex`
with self and residue coefficients and over F2, and `print`; `conormal`
and `tor` on the instances whose ring and monoid maps are both
surjective.  Every command but `print` writes its `--format json` form.

The parametric families that grow past the corpus are pinned too:
`homology`, `tor` and `conormal` on the toric sum maps N^n -> N over F3
(n = 3, 4, 6, and `tor` and `conormal` at n = 5), and `homology` on
strict complete intersections k[x..] -> k[x..]/(x_i^d_i) over QQ, up to
five variables, among them the seed-1 draws (4, 2, 5) and (5, 5, 5, 3)
of the benchmark's growth family.  `homology --coefficients residue` is
pinned on (3, 2, 3) and (2, 3, 2, 2), whose trimmed presentations pivot
through non-constant entries.  `homology` with self and residue
coefficients is pinned on the log smooth Veronese maps d = 3, 4 and
semistable maps n = 3, 5, whose front covers' leading monomials are
not coprime, so that their U/U_0 takes the full path.  A family pin's
command string carries its extra CLI arguments.  Their input texts come
from `helpers`.

Reports print their entries as given, so one more test runs every
pinned command and checks that each entry they report is a normal form.
"""

import hashlib

import pytest

from logaq.cli import main, corpus_dir, corpus_instances
from logaq.modules import FpModule

from helpers import ci_text, semistable_text, toric_text, veronese_text

JSON = ["--format", "json"]
ARGS = {
    "homology_residue": ["homology", "--coefficients", "residue", *JSON],
    "homology_char2": ["homology", "--char", "2", *JSON],
    "homology_alt": ["homology", "--alt-choices", *JSON],
    "kcomplex_self": ["kcomplex", *JSON],
    "kcomplex_residue": ["kcomplex", "--coefficients", "residue", *JSON],
    "kcomplex_char2": ["kcomplex", "--char", "2", *JSON],
    "conormal": ["conormal", *JSON],
    "tor": ["tor", *JSON],
    "print": ["print"],
}

DIGESTS = {
    ("log_line", "homology_alt"):
        "d564c5863776d7046e41ebb05d5343e343d05ead7430009f3081b6af2903e304",
    ("log_line", "homology_char2"):
        "cf66e070336b36272e9007b018e6873c8b9dbb1d48c03aa969fae63c893330e1",
    ("log_line", "homology_residue"):
        "ed6d2428fb4696ae9299a01287feb36d55de17ef1fb102dbfa959be643da29c8",
    ("log_line", "kcomplex_char2"):
        "3c4faf99be3efcbdb4be89bd4ffb06653d68cca5f48975cc432a46b8202e34d7",
    ("log_line", "kcomplex_residue"):
        "3f631d0899e328d667657b1d0815cff71d4e9579702f8d3107a50bc522bbdfbe",
    ("log_line", "kcomplex_self"):
        "9efbf64f7b98edca76875575365eb32a437b0162e97e0003ad6cc07092a347f8",
    ("log_line", "print"):
        "76c33cf0a51f3511f7a08a9d42a3cd1680f8422db8d33b73f610044d23e0f02e",
    ("log_point", "homology_alt"):
        "0b7133131b87c80f77ea9a4c21d83906e67dc304962eed486cfce5c176abc86e",
    ("log_point", "homology_char2"):
        "a33aa418a1d6b36d38bcfa97faf673b91a56e0854f8be352df479fabc0e116ec",
    ("log_point", "homology_residue"):
        "a0fc62a6dc3b8ec9723a4e55e20f554e2db759a1e3ed05432a29ff93134c8789",
    ("log_point", "kcomplex_char2"):
        "5338994dc6c2b445064eb2ec0b467f862ee50d35930686d12cf0e8c948371455",
    ("log_point", "kcomplex_residue"):
        "3f631d0899e328d667657b1d0815cff71d4e9579702f8d3107a50bc522bbdfbe",
    ("log_point", "kcomplex_self"):
        "8819dcdd03d7919dad69c0a0de45d22e45a53b59bdc56acb083f39af17b65e35",
    ("log_point", "print"):
        "f3c56755418465fd215c4490fad630c377c93a0704765c9e894a04eb2cf09b2a",
    ("logpoint_quotient", "conormal"):
        "fe720da5061ce77c1f94fc6e76f9f2bc631ffc93475cc49f32f12649c188f029",
    ("logpoint_quotient", "homology_alt"):
        "373c891f8db8c52c3d354872c77da38b9be78d61201eaad391a38c92e2653718",
    ("logpoint_quotient", "homology_char2"):
        "df73fbf4d369bc537dd2509b759e290d3e2634dfee707188050f4fe15cf0cae8",
    ("logpoint_quotient", "homology_residue"):
        "1e50590e0133457aa44827984f8fad885eca63cc5a3eca7508c369610fa95561",
    ("logpoint_quotient", "kcomplex_char2"):
        "63a11ab501ef10b27da8e71a7b7d6a8ef97b7c3e56b2f48d2789b591643849a3",
    ("logpoint_quotient", "kcomplex_residue"):
        "9324da9c485b31dd50a70d6fc60f4b0501d94eb9fa80a3c3d21b707adc51a28a",
    ("logpoint_quotient", "kcomplex_self"):
        "5919121761946d3b29c4edb1468ada9e6be56567b961acf3ad62b243a1868e42",
    ("logpoint_quotient", "print"):
        "fd9b685d2bc8598df084ca4a1a9b69a9fc0f7b64b394dcf7f10a07c1eb958214",
    ("logpoint_quotient", "tor"):
        "ae102525414bd5ca6201dfb2357c65469babe97a4b2e0dfbe6449d94f7f43cba",
    ("mixed_cover", "homology_alt"):
        "08d25df9693c85869e579f6c6e887893653b47638b344a442afca239d83bc56b",
    ("mixed_cover", "homology_char2"):
        "85dcb9b7fef1be18020277ab8f56089e65e0d7c5dc9d73e66e43622a3e487f60",
    ("mixed_cover", "homology_residue"):
        "03b8faeddde1c1fd921ee60b975d420a2c4208187ae1769e0274e9b70f671f68",
    ("mixed_cover", "kcomplex_char2"):
        "0246b1430e19efe71e562657d8ee28652eedc8b21189e4e0de23d935b80dba4d",
    ("mixed_cover", "kcomplex_residue"):
        "9324da9c485b31dd50a70d6fc60f4b0501d94eb9fa80a3c3d21b707adc51a28a",
    ("mixed_cover", "kcomplex_self"):
        "5919121761946d3b29c4edb1468ada9e6be56567b961acf3ad62b243a1868e42",
    ("mixed_cover", "print"):
        "6a07b05ec736d0f920dccfd45c1e254667eef886e5f49b917400344e41a859a1",
    ("monoid_collapse", "conormal"):
        "eb1fc4895d87ad0abf6a97e4075e9f9d6c038ded07675a1e8e86154cb99fdbc6",
    ("monoid_collapse", "homology_alt"):
        "d78bd8bd5a31b52804ab65bc824d7742644e2e617a4a1aa78422820b7984ad39",
    ("monoid_collapse", "homology_char2"):
        "bc094fd0010e48534ebc76178f2c210d6119bf7300d69f8ddb051aa8e1ad2ee9",
    ("monoid_collapse", "homology_residue"):
        "d8936b6a09809671a4502ac9b618e4a084e369c62a76282b1c90fa1bc95d8d3f",
    ("monoid_collapse", "kcomplex_char2"):
        "6862b4664e332d3e69a14980f4ec422a47aba046834617dc232c131e1e3fec7e",
    ("monoid_collapse", "kcomplex_residue"):
        "ff66fa8dea38ff7417da45e54a1db2f2cf87a5d3d768a0635c31a2ac8f3ea6f6",
    ("monoid_collapse", "kcomplex_self"):
        "cbe10ac0ca831974c506a3126b0b05ee1eca39f5dc8752650ea066a81308b3ee",
    ("monoid_collapse", "print"):
        "ada107e8bdb771948be83779fdaa37602f766b26e30a1fab5c822b378b44fcc0",
    ("monoid_collapse", "tor"):
        "4174df7db60df895894b20ce8359ae4a0153ed8b68fe100f0e47aa5edd162a15",
    ("strict_ci", "conormal"):
        "b1eaea2dd09365be97120c835fc531962e4b21a64106535a8c576cde688a5a84",
    ("strict_ci", "homology_alt"):
        "6f911d84ef4876de3e6c9425ed427a01f4e50600b568967d1a0149907d4f5424",
    ("strict_ci", "homology_char2"):
        "1c778054fce802f9139305f875d144294bf820887810268f12ce109802fc7240",
    ("strict_ci", "homology_residue"):
        "b22ce5c561e392b8ded51d176cd3832f9b267e7e6a0053797b69bc7bf12519cb",
    ("strict_ci", "kcomplex_char2"):
        "63a11ab501ef10b27da8e71a7b7d6a8ef97b7c3e56b2f48d2789b591643849a3",
    ("strict_ci", "kcomplex_residue"):
        "9324da9c485b31dd50a70d6fc60f4b0501d94eb9fa80a3c3d21b707adc51a28a",
    ("strict_ci", "kcomplex_self"):
        "5919121761946d3b29c4edb1468ada9e6be56567b961acf3ad62b243a1868e42",
    ("strict_ci", "print"):
        "b0049dd5da54e66befe473549a1d17a880a06f963b73c1aef6deaefa5cce7625",
    ("strict_ci", "tor"):
        "11eebdcb198ddd807a5d9f707123056d136c5f2e67dec4aa020c022e5618ecf8",
    ("strict_fat_point", "conormal"):
        "097b7a8cfe08404413f5461d6fbb153b2d91f722d582830cd3a2d6c7654e9a3d",
    ("strict_fat_point", "homology_alt"):
        "6a85348b882f356fca4ff48767b43f3862fa712c9a61c28a6f02dcad774362e4",
    ("strict_fat_point", "homology_char2"):
        "008f6c1c8b7af81bd3f5def2cd51d084da27c7add0adf0fee769b835c21a3bda",
    ("strict_fat_point", "homology_residue"):
        "345f76f0f091a091222e678fa76a964fc57ba6e8ba3ce9918acec8fb9788c2a4",
    ("strict_fat_point", "kcomplex_char2"):
        "63a11ab501ef10b27da8e71a7b7d6a8ef97b7c3e56b2f48d2789b591643849a3",
    ("strict_fat_point", "kcomplex_residue"):
        "9324da9c485b31dd50a70d6fc60f4b0501d94eb9fa80a3c3d21b707adc51a28a",
    ("strict_fat_point", "kcomplex_self"):
        "5919121761946d3b29c4edb1468ada9e6be56567b961acf3ad62b243a1868e42",
    ("strict_fat_point", "print"):
        "fffbc3a17735048d01715878a319cc06c39e945bc45b94405498c1b2cf547bcc",
    ("strict_fat_point", "tor"):
        "8328f76b19d84ac51907a428a615b51f05cf5e2dc3accb603cc3c1a0c80bca87",
    ("strict_hypersurface", "conormal"):
        "1da1fe15c0bb2b6d7945f448bb6c3fd11d850579611719ec61c05b2480d5c71d",
    ("strict_hypersurface", "homology_alt"):
        "f519d0b44d9e624e648ff0102f6acf173ade1522979a080c8bfb7fccbbd3ef1f",
    ("strict_hypersurface", "homology_char2"):
        "80197b645f32504846859b6eb535b5b566e2f1e13f89f1aea98752714694520e",
    ("strict_hypersurface", "homology_residue"):
        "8e827d0910ccda3c7249dc99a409aef09c591b950996d6095390c2c131de28ad",
    ("strict_hypersurface", "kcomplex_char2"):
        "63a11ab501ef10b27da8e71a7b7d6a8ef97b7c3e56b2f48d2789b591643849a3",
    ("strict_hypersurface", "kcomplex_residue"):
        "9324da9c485b31dd50a70d6fc60f4b0501d94eb9fa80a3c3d21b707adc51a28a",
    ("strict_hypersurface", "kcomplex_self"):
        "5919121761946d3b29c4edb1468ada9e6be56567b961acf3ad62b243a1868e42",
    ("strict_hypersurface", "print"):
        "e6b49aa35d7a1caf799aec36b8aacdb9f9e6121504d64c05fd4bf0593bc4fb08",
    ("strict_hypersurface", "tor"):
        "56351c91316ae31309cbcd7eaa210284c1cc7774749d3f059fad48e2e28594ec",
    ("strict_plane_curve", "conormal"):
        "3ad2368dd5e0c4b7df01eac951b1ae88b830e6b269f9b90b164c3b5998f618cd",
    ("strict_plane_curve", "homology_alt"):
        "d2231595e342a81bbd460bde1a8a9cdfa7ec1abff2a0cbdf768fd5315cc42ac6",
    ("strict_plane_curve", "homology_char2"):
        "a014c7415a9bc3cf51c7318242a57de4a29c1c7a8bfe4e5d3a26dad597313e8c",
    ("strict_plane_curve", "homology_residue"):
        "cc47e2d74c984bfcfad9e0efb33773215ef3221df823e982b56a1681494b8b09",
    ("strict_plane_curve", "kcomplex_char2"):
        "7e0b299f7659bc806a0ef9615e99fb6ef45268500bc7eb8cd359010967b88be2",
    ("strict_plane_curve", "kcomplex_residue"):
        "9324da9c485b31dd50a70d6fc60f4b0501d94eb9fa80a3c3d21b707adc51a28a",
    ("strict_plane_curve", "kcomplex_self"):
        "f0fee6261d37dc2595d9601e29571314dc728ee8950eb92c6b11b7fc6818e53e",
    ("strict_plane_curve", "print"):
        "297a60fb94f9cf1aa540525adbef256c3db8ab00e41f4c6255ab0a65da2dd80b",
    ("strict_plane_curve", "tor"):
        "4441d62d9d2fb63ed903d601d1868a5ffb8fc9656cf0e9bef4f804f2c442255f",
    ("strict_smooth", "homology_alt"):
        "3eabfa4497a992b43311872b4bf40d9ca742c29a874306360ffe638f87484277",
    ("strict_smooth", "homology_char2"):
        "462dbe925f050117df18c1f28a2a01d799e517d3ec47d6721379b7821433269d",
    ("strict_smooth", "homology_residue"):
        "b1c9c0b50a3e8cd7719cfcd219a4fb1c5ae1cd3f39e46c16663385a07fd5d9b9",
    ("strict_smooth", "kcomplex_char2"):
        "7e0b299f7659bc806a0ef9615e99fb6ef45268500bc7eb8cd359010967b88be2",
    ("strict_smooth", "kcomplex_residue"):
        "9324da9c485b31dd50a70d6fc60f4b0501d94eb9fa80a3c3d21b707adc51a28a",
    ("strict_smooth", "kcomplex_self"):
        "f0fee6261d37dc2595d9601e29571314dc728ee8950eb92c6b11b7fc6818e53e",
    ("strict_smooth", "print"):
        "4635a21774801e636bd2ec0fd6d8317467b358355f858baca7c7167a67f60fec",
    ("toric_sum", "conormal"):
        "78ec00cd29b199734951311d254eaa7d748107166c769d83eb47a706db581dcf",
    ("toric_sum", "homology_alt"):
        "4bc0dfc4c1a7ea033d29621340f9944a7ef466022a3c3578f615f7862147af77",
    ("toric_sum", "homology_char2"):
        "92d8f7f6e598815a99ceacc140485676d5c8896c7cc7b68671a9cd5ab46246d2",
    ("toric_sum", "homology_residue"):
        "8e827d0910ccda3c7249dc99a409aef09c591b950996d6095390c2c131de28ad",
    ("toric_sum", "kcomplex_char2"):
        "7d30dbc456764f08d9718b1e18895caf60f3687e0d516177984a6b8381fbb331",
    ("toric_sum", "kcomplex_residue"):
        "ff66fa8dea38ff7417da45e54a1db2f2cf87a5d3d768a0635c31a2ac8f3ea6f6",
    ("toric_sum", "kcomplex_self"):
        "ca8742c03992aef8f50be966b7cd31cf5081bdc3345d1679f75a46c88431396b",
    ("toric_sum", "print"):
        "369ab6d2acec2a8648c90864a9aeceb79d8d9c31b0d77bb2130ab2012a329ddc",
    ("toric_sum", "tor"):
        "c16ea5013333e71d8f17b5724db701dc39462cd64dc3630983e3090e9931e51d",
    ("torsion_kernel", "conormal"):
        "25e2282fdf646f7ffd62e9c0f7ce47b28f384a5e96b08a2b1567ec612a4f46f6",
    ("torsion_kernel", "homology_alt"):
        "e3e0dd6a3a73d181a9cad560b38c779d4563f29eb9041187917a103a47d13a70",
    ("torsion_kernel", "homology_char2"):
        "7cba7757a324688f9104bba4f73d9c0c13e32ed8a319619865f1f66e0d1fbfd6",
    ("torsion_kernel", "homology_residue"):
        "03b8faeddde1c1fd921ee60b975d420a2c4208187ae1769e0274e9b70f671f68",
    ("torsion_kernel", "kcomplex_char2"):
        "9be21d0423a0c913dfd7b965447f497aa45ff1e61249a38af306f16b47d42f5d",
    ("torsion_kernel", "kcomplex_residue"):
        "9324da9c485b31dd50a70d6fc60f4b0501d94eb9fa80a3c3d21b707adc51a28a",
    ("torsion_kernel", "kcomplex_self"):
        "5919121761946d3b29c4edb1468ada9e6be56567b961acf3ad62b243a1868e42",
    ("torsion_kernel", "print"):
        "83f192ebb03154e8dfe14f48ec6097aa072cee9c316d8fff83eaeb62f15068de",
    ("torsion_kernel", "tor"):
        "84d1ab091e80060c97f5158034b4df2a67866c2f0a914e17ca64ee938fa655a9",
    ("torsion_kummer", "homology_alt"):
        "d78bd8bd5a31b52804ab65bc824d7742644e2e617a4a1aa78422820b7984ad39",
    ("torsion_kummer", "homology_char2"):
        "06894d66d532f5b99cab03bb4c8d27356be3909df01af1f9fbcd34a0e4e9fc3c",
    ("torsion_kummer", "homology_residue"):
        "d8936b6a09809671a4502ac9b618e4a084e369c62a76282b1c90fa1bc95d8d3f",
    ("torsion_kummer", "kcomplex_char2"):
        "0e06a3b6024ae40d97c81303b62216d85319e4506ff4392176eb87e7142d5c8d",
    ("torsion_kummer", "kcomplex_residue"):
        "9324da9c485b31dd50a70d6fc60f4b0501d94eb9fa80a3c3d21b707adc51a28a",
    ("torsion_kummer", "kcomplex_self"):
        "5919121761946d3b29c4edb1468ada9e6be56567b961acf3ad62b243a1868e42",
    ("torsion_kummer", "print"):
        "1d0693a7e7987dac1068efe00355b1dadba72bcce5d831b4849ed0af3e46dc8f",
    ("x2_cover", "homology_alt"):
        "993d8951cd864f92888d8b4e28682d381c1a716248b3240608ba3d12b1051605",
    ("x2_cover", "homology_char2"):
        "58530454a64f89be0914a57eabd3ea7ffadb252718fc25e7d7b5dca56c875643",
    ("x2_cover", "homology_residue"):
        "24620f1eb16c7a29fab8ad6e737b7005d4ed7da344a150ca8b3843ac4e0d4107",
    ("x2_cover", "kcomplex_char2"):
        "f39e22b8fe17d095dd635d1aa81fb58c7e47a11820b3f444295d5a5f27d68ec5",
    ("x2_cover", "kcomplex_residue"):
        "9324da9c485b31dd50a70d6fc60f4b0501d94eb9fa80a3c3d21b707adc51a28a",
    ("x2_cover", "kcomplex_self"):
        "5919121761946d3b29c4edb1468ada9e6be56567b961acf3ad62b243a1868e42",
    ("x2_cover", "print"):
        "fae433e0cfac6618472db7eb38f8165ebee98c870816cdb1ef730569bbf69dd0",
    ("x3_cover", "homology_alt"):
        "993d8951cd864f92888d8b4e28682d381c1a716248b3240608ba3d12b1051605",
    ("x3_cover", "homology_char2"):
        "424f9a7f4df3751a687b9f2339c5afe8811be9e2dcdf74f3186a130a70a3a0fc",
    ("x3_cover", "homology_residue"):
        "24620f1eb16c7a29fab8ad6e737b7005d4ed7da344a150ca8b3843ac4e0d4107",
    ("x3_cover", "kcomplex_char2"):
        "63a11ab501ef10b27da8e71a7b7d6a8ef97b7c3e56b2f48d2789b591643849a3",
    ("x3_cover", "kcomplex_residue"):
        "9324da9c485b31dd50a70d6fc60f4b0501d94eb9fa80a3c3d21b707adc51a28a",
    ("x3_cover", "kcomplex_self"):
        "5919121761946d3b29c4edb1468ada9e6be56567b961acf3ad62b243a1868e42",
    ("x3_cover", "print"):
        "85770af3fa6b7d6d0914c495712a9dddf23070ee8f835ccc2cc5f371e0201c80",
}


def test_pinned_digests_cover_every_instance():
    names = {name for name, _spec in corpus_instances()}
    for key in ARGS.keys() - {"conormal", "tor"}:
        assert {n for n, k in DIGESTS if k == key} == names
    assert {n for n, k in DIGESTS if k == "conormal"} == \
        {n for n, k in DIGESTS if k == "tor"}


def test_json_output_matches_pinned_digests(capsys):
    moved = []
    for (name, key), want in sorted(DIGESTS.items()):
        cmd, *opts = ARGS[key]
        path = str(corpus_dir() / f"{name}.logaq")
        code = main([cmd, path, *opts])
        out = capsys.readouterr().out
        got = hashlib.sha256(out.encode()).hexdigest()
        if code != 0 or got != want:
            moved.append((name, key, code))
    assert not moved


FAMILY_DIGESTS = {
    ("ci", (2, 2, 3), "homology"):
        "4dc87676fa89fd8f1782253ed8770a3474398a2293b9b4b9d8e5ec2fd230460c",
    ("ci", (2, 3, 2, 2), "homology"):
        "c7e7c7976bae2f8944a3f29ee41b32f239391f911a1445b9d945ca0f5bb9faf8",
    ("ci", (2, 2, 2, 2, 2), "homology"):
        "ef49275c423f36c01e59efc60a55b9e4e075320f37869379acdd3d5f94215124",
    ("ci", (4, 2, 5), "homology"):
        "3bb71a07158205e024a9af20a07960a17e13fce9c23eab552a2bd8f048062ebb",
    ("ci", (5, 5, 5, 3), "homology"):
        "202f2e362d58c1102b98c4e7aff0b6dbabd8fba00f75d22f664d1b2290e2200f",
    ("ci", (3, 2, 3), "homology --coefficients residue"):
        "295443f0de4036025b1bde01d3586b88f72e1b761b2419677a5f26c089c613bf",
    ("ci", (2, 3, 2, 2), "homology --coefficients residue"):
        "8d1e447f8e9c2930b0401de1451722ed4dd8c8730bec4fd052fe11fe77f03564",
    ("toric", 3, "conormal"):
        "8936f01c1dffc6eee40d8832c2e20fa1f3f606b46ab1944da92cf909ad17df03",
    ("toric", 3, "homology"):
        "139b45f2bd4dbbb0f0c1dc411f5452cbdc5b72f535db3cd751d4f401833479f1",
    ("toric", 3, "tor"):
        "0933715a73c91ad3d0961eb4552637fc616b9875685698af4160bb514a69c2a5",
    ("toric", 4, "conormal"):
        "e7f94e2e8838c2c849387b902e5c4b42fa2631348443db3720248586bfbb3d38",
    ("toric", 4, "homology"):
        "1e8fbe325bf1852fd4b50c50e87a94cbbb7469f5a511fa148bc0e193c44b29df",
    ("toric", 4, "tor"):
        "fd7981e56dbfbf3669374dfaed2f54e152d65869ac9dd9973826adbbf6563b3c",
    ("toric", 5, "conormal"):
        "634e6e50fa7e5c3ebeecba473390d05b340b997f5fce8a84080c8fa88b5444ff",
    ("toric", 5, "tor"):
        "222bc800b2014e53f6d2a7be95dabaa50f55f8759cb053109114cc208204dd19",
    ("toric", 6, "conormal"):
        "e2dff720ac5a5fc1017fc2ddc609dab33432e101ce867ef0c804fb3b3f81523f",
    ("toric", 6, "homology"):
        "1677c008375be351cca09239a253ebdc5b113a0e6f871cf798da425f6cc1cf32",
    ("toric", 6, "tor"):
        "aa80e154f88be807d87ff9332494e6d03d92f6515d0fe558fc76e0ed0dd48031",
    ("veronese", 3, "homology"):
        "fdcad651d85258b728fafd5705e71ab98c34111b840311ac69ec6c63041a9807",
    ("veronese", 3, "homology --coefficients residue"):
        "2f088127e310604b4c13f651aae2974d6a10929e0a42a7a527981bfd8f93762a",
    ("veronese", 4, "homology"):
        "5bf49a121536216f3839c91a8547f5ddcc04f6e6ccdc1e0f11e6a162fde65ede",
    ("veronese", 4, "homology --coefficients residue"):
        "046355c5720d9252521951ecbbf24c6b1423bc1ab58d6187958b6221e0c37c5f",
    ("semistable", 3, "homology"):
        "6ded144e71edd6426b7e5a56334afa6db456d072e208cf204a6fda69bbcf9ee4",
    ("semistable", 3, "homology --coefficients residue"):
        "8050bcdabec95cccf5aa317122c3825cab7dc526eee0ffcac2eb8b1b8f1cc857",
    ("semistable", 5, "homology"):
        "414e6a6a05215a74ab6d163c4eda5abcf5f89c70619a3c10f48d6f3876a4d5e3",
    ("semistable", 5, "homology --coefficients residue"):
        "b17943e2dd60432dbec529f22565d36702d969aa79fa38e5ca7835da36704fd5",
}

FAMILY_TEXTS = {"ci": ci_text, "toric": toric_text,
                "veronese": veronese_text, "semistable": semistable_text}


def test_family_outputs_match_pinned_digests(tmp_path, capsys):
    moved = []
    for (family, size, cmd), want in FAMILY_DIGESTS.items():
        path = tmp_path / f"{family}.logaq"
        path.write_text(FAMILY_TEXTS[family](size))
        name, *opts = cmd.split()
        code = main([name, str(path), *opts, *JSON])
        out = capsys.readouterr().out
        got = hashlib.sha256(out.encode()).hexdigest()
        if code != 0 or got != want:
            moved.append((family, size, cmd, code, got))
    assert not moved


def test_family_texts_refuse_sizes_past_their_names():
    # a size past the name pool would silently pin a smaller instance
    assert "vars = [x, y, z, w, v, s]" in ci_text((2,) * 6)
    assert "vars = [u, v, w, x, y, z, r, s]" in toric_text(8)
    assert "gens = [a, b, c, d, f, g, h, j]" in toric_text(8)
    with pytest.raises(ValueError):
        ci_text((2,) * 7)
    with pytest.raises(ValueError):
        toric_text(9)


def test_every_pinned_report_prints_normal_forms(tmp_path, capsys,
                                                 monkeypatch):
    """Reports print their relation entries as given, so every entry of
    every trimmed presentation that a pinned command or a golden
    `homology` reports must already be its own normal form."""
    trimmed = []
    real_trim = FpModule.trim

    def trim(module):
        t = real_trim(module)
        trimmed.append(t)
        return t
    monkeypatch.setattr(FpModule, "trim", trim)
    runs = [[cmd, str(corpus_dir() / f"{name}.logaq"), *opts]
            for name, key in sorted(DIGESTS) for cmd, *opts in [ARGS[key]]]
    runs += [["homology", str(corpus_dir() / f"{name}.logaq")]
             for name, _spec in corpus_instances()]
    for i, (family, size, cmd) in enumerate(FAMILY_DIGESTS):
        path = tmp_path / f"{family}{i}.logaq"
        path.write_text(FAMILY_TEXTS[family](size))
        name, *opts = cmd.split()
        runs.append([name, str(path), *opts, *JSON])
    for argv in runs:
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert len(trimmed) > 400
    bad = [p for t in trimmed for col in t.rel_cols for p in col
           if t.algebra.nf(p) != p]
    assert bad == []
