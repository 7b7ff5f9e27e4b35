"""Group authentication via split knapsack private keys.

Compile an AND/OR(/NOT) policy over named key holders into key-share
material such that exactly the authorized groups can jointly answer an
encrypted challenge, without identifying individuals, revealing the policy
to the verifier, or ever reconstructing the private key.

Typical flow::

    from groupauth import nscrypt, policy, sharesplit, protocol

    _, priv = nscrypt.keygen(12)
    expr = policy.parse("(A and B) or (A and C)", ("A", "B", "C"))
    shares, deployment, _ = sharesplit.compile_policy(expr, ("A", "B", "C"), priv, "monotone")

    challenge, state = protocol.make_challenge(deployment)
    responses = [protocol.token_respond(shares[h], challenge) for h in ("A", "C")]
    verdict = protocol.verify(state, [protocol.merge_monotone(responses)])
"""

from .errors import GroupAuthError, SchemaError
from .nscrypt import (
    Ciphertext,
    KeyShare,
    MalformedCiphertext,
    NsPrivateKey,
    NsPublicKey,
    Plaintext,
    Share,
    ShareSequence,
    decrypt,
    encrypt,
    keygen,
    partial_decrypt,
    public_key_of,
)
from .policy import (
    And,
    Not,
    Or,
    ParseError,
    PolicyError,
    PolicyExpr,
    UnknownHolder,
    Var,
    authorized_family,
    evaluate,
    parse,
    render,
)
from .protocol import (
    AuditReport,
    Challenge,
    Deployment,
    ResponseVector,
    UnboundShare,
    Verdict,
    VerifierState,
    audit,
    make_challenge,
    merge_monotone,
    merge_responses,
    merge_sequence,
    token_respond,
    verify,
)
from .sharesplit import (
    InsufficientPrimes,
    NonMonotoneError,
    SlotAssignment,
    SlotPlan,
    authorized_groups,
    bl_split,
    compile_policy,
    issue_monotone,
    issue_sequence,
    slots_baseline,
    slots_packed,
)

__version__ = "0.1.0"
