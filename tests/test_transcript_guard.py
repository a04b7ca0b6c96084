"""`verify` output stays byte for byte the same.

For each of the 8 suites at its default bounds, the test runs
`hopfscf verify --suite NAME`, plain and with `--json`, and hashes the printed
stdout together with the exit code.  A change that claims verify output
unchanged is checked here rather than by hand.

Print the current table with `python tests/test_transcript_guard.py`.
"""

import contextlib
import hashlib
import io

import pytest

from hopfscf import cli, verify


def cases():
    for suite in verify.SUITES:
        for flags in ((), ("--json",)):
            yield suite, flags


def transcript_digest(suite: str, flags: tuple[str, ...]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--suite", suite, *flags])
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


DIGESTS = {
    ('hopf-axioms', ()): '173d5b93fadac99d8c58561a186c85227ded2143742009668e735a9b9c5442ea',
    ('hopf-axioms', ('--json',)): '33ba46a06901b86007445a1ee6515b85cf12cf83f408ab79ea91370b7c3363d4',
    ('diagrams', ()): '96dba7254a0d0c0de45884796024cea62fbab9bbb99b75556e0d5d1104bf0ffd',
    ('diagrams', ('--json',)): '48f9ba488ea6cba857228e2d90f49d9ba5d11b87c273d9e1e8aba955df38de7c',
    ('dualities', ()): 'df792594362f0ec763b64db609f3fed604fc197ad0aa12ef60fb19edcc451a3f',
    ('dualities', ('--json',)): '9db93f264079cda380698c75aa65708ee208a68325a5446cc7c94cf9f2ef6b24',
    ('specializations', ()): '560c977a8debbbab2cba1fa32201d7ac4f7a054db13d1b2367f106282461a3b8',
    ('specializations', ('--json',)): '4a2291abfcd1b9786602c55be81ccbcdedf7ae47e088bc9e95b26c9fc5745980',
    ('omega', ()): 'bfa02065ef10872cd084d578b3dc79f74d78e6086b568b36750eeab74517a0f6',
    ('omega', ('--json',)): '432391e0eda448ceaacd8e0259247314ba743f6241594a93ce1599fce5438c74',
    ('overlap', ()): 'c62f6ca2fae35487fbe7ae1e79bb61c382a3694c6461033df7550e8af5fca541',
    ('overlap', ('--json',)): '21d4362bca76b257fe2d27d331294cee025cc4344974840cd9db882f20c86737',
    ('group-axioms', ()): 'ce8fb6f6d9df4945a2aa43fdd9e9157345776ec679879300e86fbb4e82879eb7',
    ('group-axioms', ('--json',)): '37b2b0aa3cf4175640fc4eed4a6067e5e12ab8f182457f08311901cfd706ca48',
    ('integrality', ()): '046e267c304d4b75ecb23e433e0eff7bcdcc1dc09948f836a9d3d1c7ead47201',
    ('integrality', ('--json',)): 'ae57f325460a697deae1c3f2c93d75ec4a8ba92b39a35e9d1b7d16d52ff72d62',
}


def test_every_suite_is_recorded():
    assert set(DIGESTS) == set(cases())
    assert len({suite for suite, _ in DIGESTS}) == 8


@pytest.mark.parametrize("suite,flags", sorted(DIGESTS))
def test_verify_transcripts_unchanged(suite, flags):
    assert transcript_digest(suite, flags) == DIGESTS[(suite, flags)]


if __name__ == "__main__":
    for case in cases():
        print(f"    {case!r}: {transcript_digest(*case)!r},")
