"""Printed coefficients stay byte for byte the same.

For every ordered pair of distinct bases of one algebra (12 in QSym, 30 in
NSym) and every composition of degree at most 6, the test runs
`hopfscf expand --elem SRC:(parts) --to TGT --json` and hashes the printed
output; pairs that touch Pi do so for nu = 2, 3 and 5.  The digests were
recorded with the fraction-field scalar implementation, so any change to the
canonical string of a coefficient shows up here.

Print the current table with `python tests/test_printer_guard.py`.
"""

import contextlib
import hashlib
import io

import pytest

from hopfscf import cli, nsym, qsym
from hopfscf.compositions import compositions_of

MAX_DEGREE = 6
PI_NUS = (2, 3, 5)


def cases():
    for bases in (qsym.BASES, nsym.BASES):
        for src in bases:
            for tgt in bases:
                if src != tgt:
                    for nu in PI_NUS if "Pi" in (src, tgt) else (None,):
                        yield src, tgt, nu


def expand_digest(src: str, tgt: str, nu) -> str:
    h = hashlib.sha256()
    for n in range(MAX_DEGREE + 1):
        for comp in compositions_of(n):
            argv = ["expand", "--elem", f"{src}:{comp!r}", "--to", tgt, "--json"]
            if nu is not None:
                argv += ["--nu", str(nu)]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(argv) == 0, argv
            h.update(out.getvalue().encode())
    return h.hexdigest()


DIGESTS = {
    ('M', 'L', None): 'f925b16d19e7d8b3deeecceae8363fb84fc1c923d4e360614dd1f9847f5dfe13',
    ('M', 'E', None): '71d2b4b3d0273bbdf4979b16adba37e3caff272b382b60484c039ff9efbee2e6',
    ('M', 'Pi', 2): '67235752bf0c25706dcea227956ae90aeca3f57d6398507630648ea0af8aa2d4',
    ('M', 'Pi', 3): '498e56cf8d8b00cef1d98e7997f6d1a453b17e685d85fdd9644dc6881b9ceaf8',
    ('M', 'Pi', 5): '61f540bb296708f6907cec10af49dfb0e78df9a36dc794b8aee3404500aa6e0a',
    ('L', 'M', None): 'e716afbabe210e0df08f8a146761a2b88410b6e89cf0efb5654cb8b96e35d823',
    ('L', 'E', None): '925c64ac0e32d5c6910afbfe0e6f257042c131aa3cb29c76449e0fc9d894dfa7',
    ('L', 'Pi', 2): '9306e9db29d082733935a2e5683ccf5e8ae4ae5afbcba43fe4db2428eff8b528',
    ('L', 'Pi', 3): '3987e3f283a1cb8feffc63efda85026c186e31c91183d92887cc249c0f51de86',
    ('L', 'Pi', 5): 'c63858c7c8460c5300532f37a8708a34c8450f415a66f84cb897ff344df65dca',
    ('E', 'M', None): 'c7becbb72f76cbc214344dedcc50ba07b493ee8288931d9788625a1cd391afdf',
    ('E', 'L', None): 'b9be1c3dd87a3ffd313bbc245c55b9f1dc90afa870b308ce8564c080221a0665',
    ('E', 'Pi', 2): '5f49ee0c5bca46f3cc2f58876afb0e835332ce25e379267051f67841e56e725a',
    ('E', 'Pi', 3): 'd938b5f31e744a0d18e24de12b4a3e732447e35ddf30c7fbd366ce0a014c5c1b',
    ('E', 'Pi', 5): 'fd34de996a07e1f32fb182bdac47a27fd05b269b702ca23bfa25bab79ebb55bf',
    ('Pi', 'M', 2): '1c8249c3ed888bcd2084d093f8008deb5a1bd5b0932b8faf094f128ca284cab3',
    ('Pi', 'M', 3): '6ecd4cbdf18ac5fa3ee7f457132ea9441131701b71ebe9607a2786316ae2ebb8',
    ('Pi', 'M', 5): '68671b6ae002fb7be705b925c7a0fc3dae297f4b783e5583678d9372037ec04b',
    ('Pi', 'L', 2): 'c603413776a834df22ad1878ca0de49b35b70b42707d6c94f5ae892786978a7c',
    ('Pi', 'L', 3): '6c26053fd9d45c842a347a1364d3d09903f56a50d2e67a80ebaae5a40caafe81',
    ('Pi', 'L', 5): 'af3c9123bda17bff71c66608ac96ed79863e2f5a3e87d8815dbe612b7ae47f9b',
    ('Pi', 'E', 2): '0fa3214b935fb2901f11da4ea02572c950c818002d252201200359ef2764589d',
    ('Pi', 'E', 3): '1d3b1e92d8f34847138cb939b98e71994cb5d8668f7a45e1e1d9f898581bc44e',
    ('Pi', 'E', 5): 'e21ad0a6e6520788794213813a6a81533dddc5cd75e96739f8ceb2ca14ea4680',
    ('H', 'Lambda', None): '7e6dbb924f0ac9d5c5b47bf5708437fd4bc7ca23c1b761031cae5cec9d0f43f8',
    ('H', 'R', None): 'f82023d20f52a4dfb8f8d7906b30deaa2a7c12f36919d747a89a5186cefe9a1c',
    ('H', 'Estar', None): 'c3323398a674fe7fbd8589d87ebf941e8095e451bdc0e18080ccd27865b48a9f',
    ('H', 'B', None): '037a056a96776eaaa6b9abcaceb5816f29a3602750130b68aada5afaed834dbd',
    ('H', 'Bhat', None): '1e304a73a32bc2f9969639716ef5e1bedce0fe2905d7d4f1a8b3ae27c3ee5f86',
    ('Lambda', 'H', None): 'a3e21b315dafca2c45dd8d4ff2eead16c3fd6744e4f5a1aec23dc3c5bd27e4e1',
    ('Lambda', 'R', None): 'c6d4310bd66e4a64c3958220fe3a6c2935f8268bd1e4d1eff609cf589263aeaa',
    ('Lambda', 'Estar', None): 'b825ecd8d5c9389e4fddb65d202ce07e28ac391f20e29a0ab1c4853736ff498f',
    ('Lambda', 'B', None): '961dee39b704c80f5bf257cef1c76ffc5a7800bda32620922c8dcf95e9d7b6c7',
    ('Lambda', 'Bhat', None): '3aa5f005761bd7164ac677296a0b44cfe8e80cfe07f2d7075d9afb69a852aef4',
    ('R', 'H', None): '4455a8a465ae3f8691ca75d86248faedda24d2f51de71d0d45f1187a91734c80',
    ('R', 'Lambda', None): '9af1dbab1e368be58ef2e785c208956a8972c1487f16cc301ba4ab2f8d2dd2f7',
    ('R', 'Estar', None): 'bcaed7fead2344053949e6f6a5c75711b83b5e38a0d9059e0766dbe0eb83f853',
    ('R', 'B', None): 'a632d45982d83827e934b834ae9e70b3a8f9853000b47814bc6bc91aeb4500aa',
    ('R', 'Bhat', None): 'ad9b81d618b3ecd9421f386b30e9a0369c02e3512385865137a493ca67f194c9',
    ('Estar', 'H', None): '80b8f4683eaec62c2bec0976a7f4f193491520123c3818e7746a0c81a5a5c63c',
    ('Estar', 'Lambda', None): '096bbacdcda8fce0d1360f54e8da98d065421b8e421859260e0f31497d626af0',
    ('Estar', 'R', None): '89b818f92cc39bddd014d6fdba072a976a6eb688b9379fd20e377839c9415cd4',
    ('Estar', 'B', None): '648b82e2cf25688eafe4f0a97383260f856cdfa869591fc6fa77c737ec010915',
    ('Estar', 'Bhat', None): '96009604370151bcaaf279eaba902a7e332ccc678651acd5d2586cbceb6fe150',
    ('B', 'H', None): 'ab1e8a21a8a2681034eed43c29878e826517727c8024b6ee3a2085a5815957ca',
    ('B', 'Lambda', None): '7e9d1caa0fd4e5e22a6a3bf1f65d1bd276b59363f4bc8964f73ddc52c36addb2',
    ('B', 'R', None): '00c881271c47db58bd57a8aae51187cbb933b97db27419954b5c2a2abd41bb59',
    ('B', 'Estar', None): '00c146166f0867ca52f5eec8ac20664509a42eb7b98ced4e32c9181dfdf6058d',
    ('B', 'Bhat', None): '2bd72e022653e4b5db5e65adbc6074eb7180d1da35937a8e4d5ff6bdb2749656',
    ('Bhat', 'H', None): 'c7653e39a0dcc68c63e642da5707fb01cabede6c285fb94ef2b59d4fe4e89b66',
    ('Bhat', 'Lambda', None): '2b38cf064e3f460ae10b5a63df5f45bd5e1a7d5b040a4aab272e94541d2a17f6',
    ('Bhat', 'R', None): 'bf57a553605a65daca3f97f3d7776006b93d569e1c0f1d1cd7387561ab0908af',
    ('Bhat', 'Estar', None): '7702d412d18f7e02480e8a48cd98a77992565b0d29c3c65c14c484861445e75b',
    ('Bhat', 'B', None): '627ebcf0438fc69aa42cde07647eca6ae453697687b4313ae7d1ec84be41a538',
}


def test_every_pair_is_recorded():
    assert set(DIGESTS) == set(cases())
    assert len({(src, tgt) for src, tgt, _ in DIGESTS}) == 42


@pytest.mark.parametrize("src,tgt,nu", sorted(DIGESTS, key=str))
def test_printed_expansions_unchanged(src, tgt, nu):
    assert expand_digest(src, tgt, nu) == DIGESTS[(src, tgt, nu)]


if __name__ == "__main__":
    for case in cases():
        print(f"    {case!r}: {expand_digest(*case)!r},")
