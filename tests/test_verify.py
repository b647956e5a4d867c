"""The certificate verifier's check order.

`verify_certificate` type-checks the payload and looks up its names first,
then rejects faults that the certificate's own data shows, and only then
rebuilds the construction.  These tests pin that the early rejections say
exactly what the rebuild says, which fault wins when a certificate has
several, and that no malformed payload gets past the checks as anything but
a verdict or a CdgaError.
"""

import copy
import json
import pathlib
import sys
import tempfile
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from conftest import MODELS, ROOT

from secat.cli import main
from secat.core import CdgaError
from secat.invariants import (Certificate, _data_rejection, _verify_rebuilt,
                              certificate_to_json, surjection_bounds,
                              verify_certificate)
from secat.lang import parse_document

sys.path.insert(0, str(ROOT / "scripts"))
import fuzz_certificates  # noqa: E402


@cache
def _fuzz_corpus():
    """(presentations, morphisms, [(certificate, kernel nil)]) of the sweep."""
    cfg = fuzz_certificates.FuzzConfig()
    presentations, morphisms = fuzz_certificates.load_all(cfg)
    return presentations, morphisms, list(fuzz_certificates.corpus(cfg, presentations))


@cache
def _pool():
    """Pristine certificates of every kind and context form."""
    _, morphisms, corpus = _fuzz_corpus()
    witness = Certificate("nil-witness",
                          {"construction": "presentation", "cdga": "S2"},
                          {"level": 1, "view": "homology", "hi": 8,
                           "generators": ["a"], "factors": [0]})
    rep = surjection_bounds(morphisms["q"], context={"construction": "morphism",
                                                     "morphism": "q"})
    return ([cert for cert, _ in corpus] + [witness]
            + [cert for bound in rep.bounds() for cert in bound.certificates])


@cache
def _documents():
    """Model file defining each cdga and morphism."""
    out = {}
    for path in sorted(MODELS.glob("*.cdga")):
        doc = parse_document(path.read_text())
        out.update(dict.fromkeys([*doc.cdgas, *doc.morphisms], path))
    return out


def _coformal_witness():
    return next(c for c in _pool() if c.kind == "nil-witness"
                and c.context.get("cdga") == "C")


def test_early_rejections_match_the_rebuild():
    presentations, morphisms, corpus = _fuzz_corpus()
    decided = 0
    for cert, nil_k in corpus:
        for desc, bad in fuzz_certificates.corruptions(cert, nil_k):
            early = _data_rejection(bad.kind, bad.data)
            if early is None:
                continue
            decided += 1
            assert early[0] is False, desc
            assert verify_certificate(bad, presentations, morphisms) == early
            assert _verify_rebuilt(bad, presentations, morphisms) == early, desc
    # 26 nil-witness factor faults, 14 zeroed units, 3 zero witnesses
    assert decided == 43


def test_pristine_certificates_pass_the_early_checks():
    presentations, morphisms, _ = _fuzz_corpus()
    for cert in _pool():
        assert _data_rejection(cert.kind, cert.data) is None
        assert verify_certificate(cert, presentations, morphisms)[0], cert.kind


def test_only_constants_the_rebuild_must_reject_are_decided_early():
    retraction = next(c for c in _pool() if c.kind == "module-retraction")
    for unit in ("1", "(2 - 1)^3", "1/2 * 2", "a - a + 1", "a"):
        data = dict(retraction.data, values=dict(retraction.data["values"],
                                                 **{"1": unit}))
        assert _data_rejection(retraction.kind, data) is None, unit
    for unit in ("0", "2", "-1", "1/2", "0^0 + 1", "(1 + 1)^2 - 3 + 1"):
        data = dict(retraction.data, values=dict(retraction.data["values"],
                                                 **{"1": unit}))
        assert _data_rejection(retraction.kind, data) == (
            False, "retraction equations fail at 1: unit is not sent to 1"), unit

    witness = next(c for c in _pool() if c.kind == "rho-noninjectivity-witness")
    for degree, text in ((0, "1"), (0, "0"), (3, "a"), (3, "0*a")):
        data = dict(witness.data, degree=degree, witness=text)
        assert _data_rejection(witness.kind, data) is None, (degree, text)
    for degree, text in ((1, "0"), (3, "2"), (3, "1 - 1")):
        data = dict(witness.data, degree=degree, witness=text)
        assert _data_rejection(witness.kind, data) == (
            False, f"witness is not homogeneous of degree {degree}"), text


def test_a_structural_error_outranks_a_data_fault(models):
    bad = Certificate("nil-witness", {"construction": "presentation", "cdga": "Z"},
                      {"level": 2, "view": "homology", "hi": 8,
                       "generators": ["a"], "factors": [0]})
    with pytest.raises(CdgaError, match="needs cdga 'Z', which the document "
                                        "does not define"):
        verify_certificate(bad, models, {})


def test_a_data_fault_outranks_a_rebuild_error(models):
    ctx = {"construction": "multiplication", "cdga": "S3", "n": 2, "cap": 8}
    bad = Certificate("nil-witness", ctx, {
        "level": 2, "view": "homology", "hi": 7,
        "generators": ["u1"], "factors": [0, 0, 0]})
    # the rebuild alone refuses u1, which does not map to zero
    with pytest.raises(CdgaError, match="does not map to zero"):
        _verify_rebuilt(bad, models, {})
    assert verify_certificate(bad, models, {}) == (
        False, "witness has 3 factors, claim says 2")


@pytest.mark.parametrize("field, value, message", [
    ("level", None, "data field 'level' is missing"),
    ("level", "x", "data field 'level' must be int"),
    ("factors", 5, "data field 'factors' must be [int]"),
    ("level", 2.5, "data field 'level' must be int"),
    ("level", True, "data field 'level' must be int"),
    ("generators", ["a", 3], "data field 'generators' must be [str]"),
])
def test_malformed_payload_exits_2(capsys, tmp_path, field, value, message):
    cert = copy.deepcopy(_coformal_witness())
    if value is None:
        del cert.data[field]
    else:
        cert.data[field] = value
    path = tmp_path / "bad.json"
    path.write_text(certificate_to_json(cert))
    code = main(["verify-cert", str(path), "--against",
                 str(MODELS / "coformal.cdga")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: certificate {message}\n"


_WRONG_TYPES = [None, True, 2.5, "x", 7, [], {}, [1, "a"], {"k": "v"}]


@st.composite
def _malformed(draw):
    """(pristine, copy with one context or data field deleted, retyped or
    nested, or with one element of a list field retyped)."""
    pristine = draw(st.sampled_from(_pool()))
    cert = copy.deepcopy(pristine)
    part = draw(st.sampled_from(["context", "data"]))
    obj = getattr(cert, part)
    key = draw(st.sampled_from(sorted(obj)))
    old = obj[key]
    op = draw(st.sampled_from(["delete", "retype", "nest", "element"]))
    if op == "delete":
        del obj[key]
    elif op == "retype":
        obj[key] = draw(st.sampled_from(
            [v for v in _WRONG_TYPES if type(v) is not type(old)]))
    elif op == "nest":
        obj[key] = draw(st.sampled_from([[old], {"k": old}]))
    elif isinstance(old, list) and old:
        i = draw(st.integers(0, len(old) - 1))
        obj[key] = old[:i] + [draw(st.sampled_from(
            [v for v in _WRONG_TYPES if type(v) is not type(old[i])]))] + old[i + 1:]
    return pristine, cert


@settings(max_examples=300, deadline=None)
@given(case=_malformed())
def test_malformed_payloads_give_a_verdict_or_a_cdga_error(case):
    _, cert = case
    presentations, morphisms, _ = _fuzz_corpus()
    try:
        ok, detail = verify_certificate(cert, presentations, morphisms)
    except CdgaError:
        return
    assert isinstance(ok, bool) and isinstance(detail, str)


@settings(max_examples=20, deadline=None)
@given(case=_malformed())
def test_malformed_payloads_through_the_cli_exit_cleanly(case):
    pristine, cert = case
    ctx = pristine.context
    against = _documents()[ctx.get("cdga") or ctx["morphism"]]
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "cert.json"
        path.write_text(json.dumps(cert.to_dict()))
        code = main(["verify-cert", str(path), "--against", str(against)])
    assert code in (0, 2, 3)


def _kernel_power_cert(construction, cdga, n=None):
    return next(c for c in _pool() if c.kind == "kernel-power-vanishes"
                and c.context["construction"] == construction
                and c.context.get("cdga") == cdga and c.context.get("n") == n)


@pytest.mark.parametrize("construction, cdga, n, generators, m, degree", [
    # cat T <= 1 from x alone, while cat T = 3
    ("input-augmentation", "T", None, ["x"], 1, 2),
    ("augmentation", "P", None, ["u"], 2, 3),
    ("diagonal", "S3", 3, ["u - u_2"], 2, 3),
])
def test_a_kernel_power_over_part_of_the_kernel_is_rejected(
        construction, cdga, n, generators, m, degree):
    """A listed subset of the pedigreed generators spans a smaller ideal,
    whose power can vanish where the kernel's does not."""
    presentations, morphisms, _ = _fuzz_corpus()
    pristine = _kernel_power_cert(construction, cdga, n)
    assert verify_certificate(pristine, presentations, morphisms)[0]
    assert set(generators) < set(pristine.data["generators"])
    forged = Certificate(pristine.kind, pristine.context,
                         dict(pristine.data, generators=generators, m=m))
    assert verify_certificate(forged, presentations, morphisms) == (
        False, f"listed generators miss a kernel element in degree {degree}")


def test_a_windowed_kernel_power_over_a_smaller_ideal_is_rejected(morphisms):
    """The Hopf projection q has no certified top, so its kernel-power bound
    is windowed; the verifier derives the kernel up to the window, as the
    producer did, and finds a outside the ideal of a^2."""
    rep = surjection_bounds(morphisms["q"], context={"construction": "morphism",
                                                     "morphism": "q"})
    [pristine] = [c for b in rep.bounds() for c in b.certificates
                  if c.kind == "kernel-power-vanishes"]
    assert pristine.data == {"m": 4, "hi": 16, "generators": ["a"]}
    assert verify_certificate(pristine, {}, morphisms) == (
        True, "accepted within degrees <= 16; no certified top degree, so "
              "the bound stays range-qualified")
    # (a^2)^3 lies in degree 24, outside the window, so m = 2 passes the
    # power check
    forged = Certificate(pristine.kind, pristine.context,
                         dict(pristine.data, generators=["a^2"], m=2))
    assert verify_certificate(forged, {}, morphisms) == (
        False, "listed generators miss a kernel element in degree 4")
