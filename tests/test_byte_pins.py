"""SHA-256 pins of the `kcomplex`, `conormal` and `tor` JSON output.

The golden files cover only `homology`; these digests pin the other
three commands byte for byte on every corpus instance: `kcomplex` with
self and residue coefficients and over F2, `conormal` and `tor` on the
instances whose ring and monoid maps are both surjective.
"""

import hashlib

from logaq.cli import main, corpus_dir, corpus_instances

ARGS = {
    "kcomplex_self": ["kcomplex"],
    "kcomplex_residue": ["kcomplex", "--coefficients", "residue"],
    "kcomplex_char2": ["kcomplex", "--char", "2"],
    "conormal": ["conormal"],
    "tor": ["tor"],
}

DIGESTS = {
    ("log_line", "kcomplex_char2"):
        "3c4faf99be3efcbdb4be89bd4ffb06653d68cca5f48975cc432a46b8202e34d7",
    ("log_line", "kcomplex_residue"):
        "3f631d0899e328d667657b1d0815cff71d4e9579702f8d3107a50bc522bbdfbe",
    ("log_line", "kcomplex_self"):
        "9efbf64f7b98edca76875575365eb32a437b0162e97e0003ad6cc07092a347f8",
    ("log_point", "kcomplex_char2"):
        "5338994dc6c2b445064eb2ec0b467f862ee50d35930686d12cf0e8c948371455",
    ("log_point", "kcomplex_residue"):
        "3f631d0899e328d667657b1d0815cff71d4e9579702f8d3107a50bc522bbdfbe",
    ("log_point", "kcomplex_self"):
        "8819dcdd03d7919dad69c0a0de45d22e45a53b59bdc56acb083f39af17b65e35",
    ("logpoint_quotient", "conormal"):
        "fe720da5061ce77c1f94fc6e76f9f2bc631ffc93475cc49f32f12649c188f029",
    ("logpoint_quotient", "kcomplex_char2"):
        "63a11ab501ef10b27da8e71a7b7d6a8ef97b7c3e56b2f48d2789b591643849a3",
    ("logpoint_quotient", "kcomplex_residue"):
        "9324da9c485b31dd50a70d6fc60f4b0501d94eb9fa80a3c3d21b707adc51a28a",
    ("logpoint_quotient", "kcomplex_self"):
        "5919121761946d3b29c4edb1468ada9e6be56567b961acf3ad62b243a1868e42",
    ("logpoint_quotient", "tor"):
        "ae102525414bd5ca6201dfb2357c65469babe97a4b2e0dfbe6449d94f7f43cba",
    ("mixed_cover", "kcomplex_char2"):
        "0246b1430e19efe71e562657d8ee28652eedc8b21189e4e0de23d935b80dba4d",
    ("mixed_cover", "kcomplex_residue"):
        "9324da9c485b31dd50a70d6fc60f4b0501d94eb9fa80a3c3d21b707adc51a28a",
    ("mixed_cover", "kcomplex_self"):
        "5919121761946d3b29c4edb1468ada9e6be56567b961acf3ad62b243a1868e42",
    ("monoid_collapse", "conormal"):
        "eb1fc4895d87ad0abf6a97e4075e9f9d6c038ded07675a1e8e86154cb99fdbc6",
    ("monoid_collapse", "kcomplex_char2"):
        "6862b4664e332d3e69a14980f4ec422a47aba046834617dc232c131e1e3fec7e",
    ("monoid_collapse", "kcomplex_residue"):
        "ff66fa8dea38ff7417da45e54a1db2f2cf87a5d3d768a0635c31a2ac8f3ea6f6",
    ("monoid_collapse", "kcomplex_self"):
        "cbe10ac0ca831974c506a3126b0b05ee1eca39f5dc8752650ea066a81308b3ee",
    ("monoid_collapse", "tor"):
        "4174df7db60df895894b20ce8359ae4a0153ed8b68fe100f0e47aa5edd162a15",
    ("strict_ci", "conormal"):
        "b1eaea2dd09365be97120c835fc531962e4b21a64106535a8c576cde688a5a84",
    ("strict_ci", "kcomplex_char2"):
        "63a11ab501ef10b27da8e71a7b7d6a8ef97b7c3e56b2f48d2789b591643849a3",
    ("strict_ci", "kcomplex_residue"):
        "9324da9c485b31dd50a70d6fc60f4b0501d94eb9fa80a3c3d21b707adc51a28a",
    ("strict_ci", "kcomplex_self"):
        "5919121761946d3b29c4edb1468ada9e6be56567b961acf3ad62b243a1868e42",
    ("strict_ci", "tor"):
        "11eebdcb198ddd807a5d9f707123056d136c5f2e67dec4aa020c022e5618ecf8",
    ("strict_fat_point", "conormal"):
        "097b7a8cfe08404413f5461d6fbb153b2d91f722d582830cd3a2d6c7654e9a3d",
    ("strict_fat_point", "kcomplex_char2"):
        "63a11ab501ef10b27da8e71a7b7d6a8ef97b7c3e56b2f48d2789b591643849a3",
    ("strict_fat_point", "kcomplex_residue"):
        "9324da9c485b31dd50a70d6fc60f4b0501d94eb9fa80a3c3d21b707adc51a28a",
    ("strict_fat_point", "kcomplex_self"):
        "5919121761946d3b29c4edb1468ada9e6be56567b961acf3ad62b243a1868e42",
    ("strict_fat_point", "tor"):
        "8328f76b19d84ac51907a428a615b51f05cf5e2dc3accb603cc3c1a0c80bca87",
    ("strict_hypersurface", "conormal"):
        "1da1fe15c0bb2b6d7945f448bb6c3fd11d850579611719ec61c05b2480d5c71d",
    ("strict_hypersurface", "kcomplex_char2"):
        "63a11ab501ef10b27da8e71a7b7d6a8ef97b7c3e56b2f48d2789b591643849a3",
    ("strict_hypersurface", "kcomplex_residue"):
        "9324da9c485b31dd50a70d6fc60f4b0501d94eb9fa80a3c3d21b707adc51a28a",
    ("strict_hypersurface", "kcomplex_self"):
        "5919121761946d3b29c4edb1468ada9e6be56567b961acf3ad62b243a1868e42",
    ("strict_hypersurface", "tor"):
        "56351c91316ae31309cbcd7eaa210284c1cc7774749d3f059fad48e2e28594ec",
    ("strict_plane_curve", "conormal"):
        "3ad2368dd5e0c4b7df01eac951b1ae88b830e6b269f9b90b164c3b5998f618cd",
    ("strict_plane_curve", "kcomplex_char2"):
        "7e0b299f7659bc806a0ef9615e99fb6ef45268500bc7eb8cd359010967b88be2",
    ("strict_plane_curve", "kcomplex_residue"):
        "9324da9c485b31dd50a70d6fc60f4b0501d94eb9fa80a3c3d21b707adc51a28a",
    ("strict_plane_curve", "kcomplex_self"):
        "f0fee6261d37dc2595d9601e29571314dc728ee8950eb92c6b11b7fc6818e53e",
    ("strict_plane_curve", "tor"):
        "4441d62d9d2fb63ed903d601d1868a5ffb8fc9656cf0e9bef4f804f2c442255f",
    ("strict_smooth", "kcomplex_char2"):
        "7e0b299f7659bc806a0ef9615e99fb6ef45268500bc7eb8cd359010967b88be2",
    ("strict_smooth", "kcomplex_residue"):
        "9324da9c485b31dd50a70d6fc60f4b0501d94eb9fa80a3c3d21b707adc51a28a",
    ("strict_smooth", "kcomplex_self"):
        "f0fee6261d37dc2595d9601e29571314dc728ee8950eb92c6b11b7fc6818e53e",
    ("toric_sum", "conormal"):
        "78ec00cd29b199734951311d254eaa7d748107166c769d83eb47a706db581dcf",
    ("toric_sum", "kcomplex_char2"):
        "7d30dbc456764f08d9718b1e18895caf60f3687e0d516177984a6b8381fbb331",
    ("toric_sum", "kcomplex_residue"):
        "ff66fa8dea38ff7417da45e54a1db2f2cf87a5d3d768a0635c31a2ac8f3ea6f6",
    ("toric_sum", "kcomplex_self"):
        "ca8742c03992aef8f50be966b7cd31cf5081bdc3345d1679f75a46c88431396b",
    ("toric_sum", "tor"):
        "c16ea5013333e71d8f17b5724db701dc39462cd64dc3630983e3090e9931e51d",
    ("torsion_kernel", "conormal"):
        "25e2282fdf646f7ffd62e9c0f7ce47b28f384a5e96b08a2b1567ec612a4f46f6",
    ("torsion_kernel", "kcomplex_char2"):
        "9be21d0423a0c913dfd7b965447f497aa45ff1e61249a38af306f16b47d42f5d",
    ("torsion_kernel", "kcomplex_residue"):
        "9324da9c485b31dd50a70d6fc60f4b0501d94eb9fa80a3c3d21b707adc51a28a",
    ("torsion_kernel", "kcomplex_self"):
        "5919121761946d3b29c4edb1468ada9e6be56567b961acf3ad62b243a1868e42",
    ("torsion_kernel", "tor"):
        "84d1ab091e80060c97f5158034b4df2a67866c2f0a914e17ca64ee938fa655a9",
    ("torsion_kummer", "kcomplex_char2"):
        "0e06a3b6024ae40d97c81303b62216d85319e4506ff4392176eb87e7142d5c8d",
    ("torsion_kummer", "kcomplex_residue"):
        "9324da9c485b31dd50a70d6fc60f4b0501d94eb9fa80a3c3d21b707adc51a28a",
    ("torsion_kummer", "kcomplex_self"):
        "5919121761946d3b29c4edb1468ada9e6be56567b961acf3ad62b243a1868e42",
    ("x2_cover", "kcomplex_char2"):
        "f39e22b8fe17d095dd635d1aa81fb58c7e47a11820b3f444295d5a5f27d68ec5",
    ("x2_cover", "kcomplex_residue"):
        "9324da9c485b31dd50a70d6fc60f4b0501d94eb9fa80a3c3d21b707adc51a28a",
    ("x2_cover", "kcomplex_self"):
        "5919121761946d3b29c4edb1468ada9e6be56567b961acf3ad62b243a1868e42",
    ("x3_cover", "kcomplex_char2"):
        "63a11ab501ef10b27da8e71a7b7d6a8ef97b7c3e56b2f48d2789b591643849a3",
    ("x3_cover", "kcomplex_residue"):
        "9324da9c485b31dd50a70d6fc60f4b0501d94eb9fa80a3c3d21b707adc51a28a",
    ("x3_cover", "kcomplex_self"):
        "5919121761946d3b29c4edb1468ada9e6be56567b961acf3ad62b243a1868e42",
}


def test_pinned_digests_cover_every_instance():
    names = {name for name, _spec in corpus_instances()}
    for key in ("kcomplex_self", "kcomplex_residue", "kcomplex_char2"):
        assert {n for n, k in DIGESTS if k == key} == names
    assert {n for n, k in DIGESTS if k == "conormal"} == \
        {n for n, k in DIGESTS if k == "tor"}


def test_json_output_matches_pinned_digests(capsys):
    moved = []
    for (name, key), want in sorted(DIGESTS.items()):
        cmd, *opts = ARGS[key]
        path = str(corpus_dir() / f"{name}.logaq")
        code = main([cmd, path, *opts, "--format", "json"])
        out = capsys.readouterr().out
        got = hashlib.sha256(out.encode()).hexdigest()
        if code != 0 or got != want:
            moved.append((name, key, code))
    assert not moved
