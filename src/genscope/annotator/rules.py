"""The generics rule engine.

Verdicts come from an ordered pipeline over normalized clauses:

1. text-level exclusion screens: conditional opener, question form,
   shoutouts, and bare noun phrases with nothing predicated of them;
2. noun-phrase pattern scan, clause by clause: quantified subjects are
   skipped (an unquantified group NP elsewhere can still fire, which is
   what rescues "most people think that Ks do F"); the first matching
   pattern wins and is recorded as ``matched_rule``;
3. an anaphoric pass ("they" + present predicate after a group NP);
4. fallback exclusion reasons: past-tense-only text, quantified subject,
   missing group subject, or no feature ascription.

Every verdict names the rule that decided it as ``matched_rule`` (the
README lists all 30). Each decision is stated once: ``SCREENS`` gives
each screen rule's exclusion reason and ``_screen`` builds every
non-generic verdict; a pattern gives its (kind, rule) pair and
``_generic`` builds the verdict over the subject's tokens. Fixed outcomes
are tables (``MODAL_RULES``, ``ELLIPTICAL_MARKS``), and each word-class
union the rules test is one named set.

The past-tense screen is implemented as a fallback rather than a gate:
a text whose only finite verbs are past can still carry an implied
present copula (colon, "=", "be like"), and those elliptical cues must
win, so they fire first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_

from ..errors import InputError
from .lexicons import RuleLexicons
from .normalize import (
    BLANK,
    COLON,
    COMMA,
    EMOJI,
    EQUALS,
    QUESTION,
    QUOTE,
    URL,
    WORD,
    Clause,
    WordTable,
    normalize,
    token_spans,
)

GENERIC = "generic"
NON_GENERIC = "non_generic"

KINDS = ("bare", "framed", "hedged", "elliptical")
# each screen rule and the exclusion reason of its non-generic verdict
SCREENS = {
    "screen:empty": "no_group_subject",
    "screen:conditional": "conditional",
    "screen:question_inversion": "question",
    "screen:question_mark": "question",
    "screen:shoutout_comma": "shoutout",
    "screen:shoutout_clause": "shoutout",
    "screen:bare_np": "no_feature_ascription",
    "screen:past_tense": "past_tense_only",
    "screen:quantified": "quantified_subject",
    "screen:no_group": "no_group_subject",
    "screen:no_ascription": "no_feature_ascription",
}
EXCLUSION_REASONS = frozenset(SCREENS.values())

# closed-class tables; these define the pattern grammar itself
PRESENT_COPULAS = frozenset(
    "is are am ain't aint isn't isnt aren't arent".split()
)
CONTRACTED_COPULAS = frozenset(
    "that's it's there's here's what's she's he's who's".split()
)
DO_SUPPORT = frozenset("do does don't dont doesn't doesnt".split())
PAST_AUX = frozenset("was were did didn't didnt wasn't wasnt weren't werent".split())
HEDGE_MODALS = frozenset(
    "can can't cant cannot could couldn't couldnt may might mightn't "
    "would wouldn't wouldnt will won't wont shall".split()
)
BARE_MODALS = frozenset("should shouldn't shouldnt must mustn't mustnt".split())
PRONOUNS = frozenset(
    "i you he she we it me him her us them they y'all yall u ur mine yours "
    "nobody somebody someone everyone everybody anybody anyone one's".split()
)
DETERMINERS = frozenset("the a an this these those".split())
PREPOSITIONS = frozenset(
    "in on at with without of from for by about over under between against "
    "during after before into onto among around through across including "
    "like near behind beyond within".split()
)
CONJUNCTIONS = frozenset("but because cause cuz tho though although yet while whereas".split())
SKIP_JOINERS = frozenset(["and", "or", "&", "nor", "plus"])
ADVERBS = frozenset(
    "really just too so very literally actually seriously truly always never "
    "still also even again now then right basically honestly genuinely simply "
    "totally definitely legit only more less way pretty much kinda sorta "
    "fucking damn fuckin all".split()
)
NEGATIONS = frozenset("not never no".split())
NP_NOISE = frozenset(["etc", "aka", "esp"])
AUX_INVERSION_OPENERS = frozenset(
    "will would can could should shall do does did is are am was were have has had".split()
)
WH_OPENERS = frozenset("who what when where why how which whose whom".split())
SECOND_PERSON = frozenset("you your yours y'all yall u ur yourself".split())
IMPERATIVE_VERBS = frozenset(
    "hold keep stay stop go come get take listen look remember wake rise "
    "stand fight vote call check watch leave run hide pray".split()
)
REPORTING_GERUNDS = frozenset(
    "thinking saying claiming believing acting arguing insisting pretending "
    "assuming wondering suggesting".split()
)
NON_GERUND_ING = frozenset(
    "thing king ring wing morning evening nothing something everything "
    "anything during ceiling feeling building darling sibling duckling "
    "string spring bring sterling".split()
)
INFINITIVE_MARKER = "to"
THEY = frozenset(["they", "they're", "they've", "they'll", "they'd"])
FRAME_WORDS = frozenset("breaking news report update alert reminder psa".split())
# closed-class words that never sit inside a noun phrase
NON_NP_WORDS = (
    PRONOUNS | DETERMINERS | PREPOSITIONS | CONJUNCTIONS | SKIP_JOINERS
    | ADVERBS | NEGATIONS | {INFINITIVE_MARKER}
)
# tokens that can sit between a group NP's head and its predicate
NP_SKIP = SKIP_JOINERS | NP_NOISE | {COMMA, EMOJI, QUOTE}
# words after a copula that give it no content ("are about whether")
NON_CONTENT_WORDS = (
    PREPOSITIONS | DETERMINERS | CONJUNCTIONS | PRONOUNS | ADVERBS | NEGATIONS
    | {"whether", "if", "that", "how", "why", "when"}
)
# the kind and rule of a modal predicate
MODAL_RULES = {
    **dict.fromkeys(HEDGE_MODALS, ("hedged", "hedged_modal")),
    **dict.fromkeys(BARE_MODALS, ("bare", "should_construction")),
}
# the rule of each mark that, right after a subject NP, stands for a copula
ELLIPTICAL_MARKS = {
    COLON: "elliptical_colon", EQUALS: "elliptical_equals", BLANK: "elliptical_blank"
}

# per-word-type flag bits (a clause's ``flags``, beside ``WORD``), set once
# per norm by ``RuleAnnotator._classify``; tokens that are not words have none
PRESENT = 1
PAST = 2
MODAL = 4
FINITE = PRESENT | PAST | MODAL
GERUND = 8
QUANTIFIER = 16
INTERJECTION = 32
ABSORBABLE = 64  # can sit in a noun phrase left of its head; all group modifiers can
GROUP_NOUN = 128
GROUP_MODIFIER = 256


def _union(flags: list[int]) -> int:
    """Every bit set on any of ``flags``, folded in C rather than a
    Python loop."""
    return reduce(or_, flags, 0)


@dataclass
class AnnotatorVerdict:
    label: str
    kind: str | None = None
    exclusion_reason: str | None = None
    matched_rule: str = ""
    # the subject's first and last token, as indices into the text's tokens
    # (the norms of its clauses, in order)
    subject_tokens: tuple[int, int] | None = None
    # the text and word table the tokens came from, for ``subject_span``
    source: tuple[str, WordTable] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.label == GENERIC:
            if self.kind not in KINDS or self.exclusion_reason is not None:
                raise InputError("generic verdicts need a kind and no reason")
        elif self.label == NON_GENERIC:
            if self.exclusion_reason not in EXCLUSION_REASONS or self.kind is not None:
                raise InputError("non-generic verdicts need a reason and no kind")
        else:
            raise InputError(f"unknown label {self.label!r}")

    @property
    def is_generic(self) -> bool:
        return self.label == GENERIC

    @cached_property
    def subject_span(self) -> tuple[int, int] | None:
        """The subject's character span in the text, found the first time
        it is read: ``analyze`` never reads it."""
        if self.subject_tokens is None:
            return None
        if self.source is None:
            raise InputError("a verdict with subject_tokens needs its source to find its span")
        spans = token_spans(*self.source)
        first, last = self.subject_tokens
        return spans[first][0], spans[last][1]


@dataclass(slots=True)
class NounPhrase:
    start: int  # token index of the first NP token
    head: int  # token index of the group noun
    quantified: bool
    prep_before: bool


def _generic(kind: str, rule: str, first: int, last: int) -> AnnotatorVerdict:
    """A generic verdict whose subject runs from token ``first`` to ``last``."""
    return AnnotatorVerdict(
        label=GENERIC, kind=kind, matched_rule=rule, subject_tokens=(first, last)
    )


def _screen(rule: str) -> AnnotatorVerdict:
    """The non-generic verdict of screen ``rule``."""
    return AnnotatorVerdict(label=NON_GENERIC, exclusion_reason=SCREENS[rule], matched_rule=rule)


def _is_laughter(token: str) -> bool:
    if len(token) < 3:
        return False
    letters = set(token)
    return letters <= {"a", "h"} or letters <= {"l", "o"} or (
        token.startswith("lma") and letters <= {"l", "m", "a", "o"}
    )


def _next_flagged(clause: Clause, start: int, mask: int) -> int | None:
    """Index of the first token from ``start`` on with a flag in ``mask``,
    skipping each to-infinitive (including 'to ADV verb'), or None."""
    norms, flags, _ = clause
    j = start
    n = len(norms)
    while j < n:
        if norms[j] == INFINITIVE_MARKER:
            j += 1
            while j < n and norms[j] in ADVERBS:
                j += 1
            j += 1  # the infinitive verb itself is non-finite
        elif flags[j] & mask:
            return j
        else:
            j += 1
    return None


class RuleAnnotator:
    """Deterministic rule-based social-generics classifier."""

    def __init__(self, lexicons: RuleLexicons | None = None):
        self.lexicons = lexicons or RuleLexicons.default()
        lex = self.lexicons
        self._non_np = NON_NP_WORDS | lex.quantifiers | lex.interjections
        # adverbs, hedges and negations: the words of an adverb run
        self._adverbials = ADVERBS | NEGATIONS | lex.hedge_adverbs
        self.words = WordTable(lex.abbreviations, self._classify)

    def _classify(self, t: str) -> int:
        """The flag bits of word norm ``t``; the word table calls this
        once per distinct norm."""
        lex = self.lexicons
        flags = 0
        if (
            t in PRESENT_COPULAS
            or t in CONTRACTED_COPULAS
            or t in DO_SUPPORT
            or t.endswith(("'re", "'ve", "'ll"))
            or t in lex.verbs
            # third-person -s / -es / -ies inflections of known verbs
            or (t.endswith("ies") and t[:-3] + "y" in lex.verbs)
            or (t.endswith("es") and t[:-2] in lex.verbs)
            or (t.endswith("s") and t[:-1] in lex.verbs)
            # derivational verb suffixes cover rarer coinages
            or (len(t) > 5 and t.endswith(("ize", "izes", "ise", "ify", "ifies")))
        ):
            flags |= PRESENT
        if t in PAST_AUX or (
            t not in lex.verbs
            and (t in lex.irregular_pasts or (len(t) > 3 and t.endswith("ed")))
        ):
            flags |= PAST
        if t in MODAL_RULES:
            flags |= MODAL
        if len(t) >= 5 and t.endswith("ing") and t not in NON_GERUND_ING:
            flags |= GERUND
        if t in lex.quantifiers or t.isdigit():
            flags |= QUANTIFIER
        if t in lex.interjections or _is_laughter(t):
            flags |= INTERJECTION
        # tweet genitive/plural slips: "republican's are ..." means the plural
        if t in lex.group_nouns or (t.endswith("'s") and t[:-2] + "s" in lex.group_nouns):
            flags |= GROUP_NOUN
        if t in lex.group_modifiers:
            flags |= GROUP_MODIFIER | ABSORBABLE
        elif t not in self._non_np and not flags & (FINITE | GERUND):
            flags |= ABSORBABLE
        return flags

    # --- noun phrase detection -------------------------------------------

    def _find_nps(self, clause: Clause) -> list[NounPhrase]:
        norms, flags, _ = clause
        nps: list[NounPhrase] = []
        if not _union(flags) & GROUP_NOUN:
            return nps
        for i, f in enumerate(flags):
            if not f & GROUP_NOUN:
                continue
            # absorb premodifiers leftward
            start = i
            while start > 0 and flags[start - 1] & (ABSORBABLE | GROUP_NOUN):
                start -= 1
            # merge NPs that share one span (conjoined heads keep the first)
            if nps and start <= nps[-1].head:
                continue
            quantified = prep_before = False
            if start > 0:
                before = start - 1
                if flags[before] & QUANTIFIER:
                    quantified = True
                elif norms[before] == "of" and start > 1 and flags[start - 2] & QUANTIFIER:
                    quantified = True  # "the majority of Ks"
                prep_before = norms[before] in PREPOSITIONS
            nps.append(NounPhrase(start, i, quantified, prep_before))
        return nps

    # --- the public operations -------------------------------------------

    def annotate(self, text: str, clauses: list[Clause] | None = None) -> AnnotatorVerdict:
        """The verdict on one text; ``clauses``, when given, are the text's
        ``normalize(text, self.words)`` clauses."""
        if not text or not text.strip():
            raise InputError("cannot annotate empty text")
        if clauses is None:
            clauses = normalize(text, self.words)[1]
        if not clauses:
            return _screen("screen:empty")

        screen = self._opener_screen(clauses)
        if screen is not None:
            return screen
        # each clause's NPs, shared by the shoutout screen and the scan
        nps = [self._find_nps(clause) for clause in clauses]
        screen = self._shoutout_screen(clauses, nps)
        if screen is not None:
            return screen

        state = _ScanState()
        verdict = None
        for ci, clause in enumerate(clauses):
            if clause.norms[-1] == QUESTION:
                continue  # question clauses never assert a generic
            verdict = self._scan_clause(clauses, ci, state, nps[ci])
            if verdict is not None:
                break
        if verdict is None:
            verdict = self._anaphoric_pass(clauses, state)
        if verdict is None:
            return state.fallback_screen()
        verdict.source = (text, self.words)  # every generic verdict has a subject
        return verdict

    # --- screens -----------------------------------------------------------

    def _opener_screen(self, clauses: list[Clause]) -> AnnotatorVerdict | None:
        norms, flags, _ = clauses[0]
        if flags[0] & WORD:
            opener = norms[0]
        else:
            opener = next((w for w, f in zip(norms, flags) if f & WORD), None)
        if opener is not None:
            if opener in ("if", "unless"):
                return _screen("screen:conditional")
            if opener in AUX_INVERSION_OPENERS:
                return _screen("screen:question_inversion")
            ends_question = norms[-1] == QUESTION
            if ends_question and (opener in WH_OPENERS or len(clauses) == 1):
                return _screen("screen:question_mark")
        return None

    def _directive_continuation(self, norms: list[str], flags: list[int]) -> bool:
        words = [w for w, f in zip(norms, flags) if f & WORD]
        if not words:
            return False
        if words[0] in IMPERATIVE_VERBS or words[0] in SECOND_PERSON:
            return True
        if any(w in SECOND_PERSON for w in words):
            return True
        hits = sum(1 for f in flags if f & INTERJECTION)
        return hits * 2 >= len(words)

    def _shoutout_screen(
        self, clauses: list[Clause], nps: list[list[NounPhrase]]
    ) -> AnnotatorVerdict | None:
        for ci, (norms, flags, _) in enumerate(clauses):
            if not nps[ci]:
                continue
            np = nps[ci][0]
            if np.prep_before or np.quantified:
                continue
            if _union(flags[: np.start]) & FINITE:
                continue
            # tokens between the head and a comma must stay NP-internal
            n = len(norms)
            j = np.head + 1
            while j < n and flags[j] & (GROUP_NOUN | GROUP_MODIFIER):
                j += 1
            if j < n and norms[j] == COMMA:
                if self._directive_continuation(norms[j + 1 :], flags[j + 1 :]):
                    return _screen("screen:shoutout_comma")
            # bare-NP clause followed by a directive clause; a relative
            # postmodifier ("Ks who ...") does not predicate anything
            if ci + 1 == len(clauses):
                break  # no clause follows
            rest_words = [k for k in range(np.head + 1, n) if flags[k] & WORD]
            if rest_words and norms[rest_words[0]] in ("who", "that", "which"):
                rest_has_content = False
            else:
                rest_has_content = any(not flags[k] & INTERJECTION for k in rest_words)
            nxt = clauses[ci + 1]
            if (
                not rest_has_content
                and not _union(flags) & PRESENT
                and self._directive_continuation(nxt.norms, nxt.flags)
            ):
                return _screen("screen:shoutout_clause")
        return None

    # --- clause scan ---------------------------------------------------------
    # Each pattern gives the (kind, rule) of the generic it finds, and
    # ``_scan_clause`` builds the verdict over the noun phrase's tokens.

    def _scan_clause(
        self,
        clauses: list[Clause],
        ci: int,
        state: "_ScanState",
        nps: list[NounPhrase],
    ) -> AnnotatorVerdict | None:
        clause = clauses[ci]
        state.bits |= _union(clause.flags)

        head = clause.norms[:4]
        frame = COLON in head and not FRAME_WORDS.isdisjoint(head)
        after = 0
        if frame:
            # the headline prefix is not part of the clause proper
            after = clause.norms.index(COLON, 0, 4) + 1
            clause = Clause(clause.norms[after:], clause.flags[after:], clause.start + after)
            nps = self._find_nps(clause)
        if nps and state.first_np is None:
            # the head's index in the whole clause, as the anaphoric pass counts
            state.first_np = (ci, after + nps[0].head)
        for np in nps:
            if np.quantified:
                state.saw_quantified_np = True
                continue
            found = self._try_patterns(clauses, ci, clause, np, frame)
            if found is not None:
                return _generic(*found, clause.start + np.start, clause.start + np.head)
        # quoted definition: "…" + a trailing group NP names the picture
        np = self._quoted_definition(clause)
        if np is not None:
            return _generic(
                "elliptical", "elliptical_quoted_definition",
                clause.start + np.start, clause.start + np.head,
            )
        return None

    def _try_patterns(
        self,
        clauses: list[Clause],
        ci: int,
        clause: Clause,
        np: NounPhrase,
        frame: bool,
    ) -> tuple[str, str] | None:
        hedges = self.lexicons.hedge_adverbs
        norms, flags, _ = clause
        n = len(norms)
        left = _union(flags[: np.start])
        # the NP is the subject unless a preposition or a finite verb precedes it
        subject = not np.prep_before and not left & FINITE
        # a verb (finite or gerund) left of the NP marks true embedding
        embedded = not subject or left & GERUND

        # "be like" anywhere after the NP is the strongest elliptical cue
        if "be" in norms:
            for j in range(np.head + 1, n - 1):
                if norms[j] == "be" and norms[j + 1] == "like":
                    return "elliptical", "elliptical_be_like"

        hedge_seen = False
        j = np.head + 1
        # NP-internal and conjunct material between head and predicate
        while j < n and (norms[j] in NP_SKIP or flags[j] & (GROUP_NOUN | GROUP_MODIFIER)):
            j += 1

        adverb_run = False
        while j < n:
            norm = norms[j]
            f = flags[j]

            if f & WORD and norm in self._adverbials:
                if norm in hedges:
                    hedge_seen = True
                adverb_run = True
                j += 1
                continue

            if norm in ELLIPTICAL_MARKS:
                return ("elliptical", ELLIPTICAL_MARKS[norm]) if subject else None

            if norm == "be":
                return "elliptical", "elliptical_habitual_be"

            if norm in MODAL_RULES:
                return MODAL_RULES[norm]

            if f & PAST:
                return None  # past predicate; the fallback screens decide

            if f & PRESENT:
                if norm in PRESENT_COPULAS or norm in CONTRACTED_COPULAS:
                    if not self._copula_has_content(clause, j + 1):
                        return None
                if hedge_seen:
                    return "hedged", "hedged_adverb"
                if frame or embedded:
                    return "framed", "framed_embedded"
                return "bare", "bare_present"

            if f & GERUND:
                if not subject:
                    return None
                if norm in REPORTING_GERUNDS:
                    return ("framed" if frame else "elliptical"), "elliptical_reporting_gerund"
                if _next_flagged(clause, j + 1, FINITE) is None:
                    return ("framed" if frame else "elliptical"), "elliptical_gerund"
                return None  # the gerund phrase, not the group, is the subject

            if norm in ("who", "that", "which"):
                return self._relative_pattern(clause, j, frame, subject)

            if norm == "when" and subject:
                return "elliptical", "elliptical_when"

            if norm in PREPOSITIONS and subject:
                # a PP postmodifier: jump over it to the predicate, if any
                k = _next_flagged(clause, j + 1, FINITE | GERUND)
                if k is not None:
                    j = k
                    adverb_run = False
                    continue
                if j + 1 < n:
                    return "elliptical", "elliptical_image"
                return None

            if norm in DETERMINERS and subject:
                return "elliptical", "elliptical_missing_copula"

            if adverb_run and subject:
                if _next_flagged(clause, j, FINITE) is None:
                    return "elliptical", "elliptical_missing_copula"
                j += 1
                continue

            if norm in (EMOJI, URL, QUOTE, COMMA):
                j += 1
                continue

            return None  # bare compound or other non-predicating continuation

        # clause ends right after the subject NP
        if subject and ci + 1 < len(clauses):
            nxt = clauses[ci + 1]
            nxt_words = [w for w, f in zip(nxt.norms, nxt.flags) if f & WORD]
            if nxt_words[:1] == ["be"]:
                if nxt_words[1:2] == ["like"]:
                    return "elliptical", "elliptical_be_like"
                return "elliptical", "elliptical_habitual_be"
            if self._fragment_predicate(nxt):
                return "elliptical", "elliptical_np_fragment"
        return None

    def _copula_has_content(self, clause: Clause, start: int) -> bool:
        """A copula needs a contentful complement ("are about whether" has none)."""
        norms, flags, _ = clause
        for k in range(start, len(norms)):
            norm = norms[k]
            if not flags[k] & WORD:
                if norm in (EMOJI, BLANK, URL):
                    return True
            elif norm not in NON_CONTENT_WORDS:
                return True
        return False

    def _relative_pattern(self, clause, rel_index, frame, subject) -> tuple[str, str] | None:
        """NP + who/that …: the last verb group is the main predicate when
        more than one group follows; a lone present-ish relative leaves a
        postmodified NP (image caption)."""
        norms, flags, _ = clause
        heads: list[int] = []  # the first token of each verb group
        in_group = False
        j = rel_index + 1
        while j < len(norms):
            if norms[j] == INFINITIVE_MARKER:
                j += 2
                continue
            if flags[j] & (FINITE | GERUND) or norms[j] in NEGATIONS:
                if not in_group:
                    heads.append(j)
                in_group = True
            else:
                in_group = False
            j += 1

        if len(heads) >= 2:
            # adverbial material can trail the predicate; take the last
            # group that is not past morphology as the main one
            present = [h for h in heads if not flags[h] & PAST]
            if not present:
                return None
            head = norms[present[-1]]
            if head in MODAL_RULES:
                return MODAL_RULES[head]
            if frame or not subject:
                return "framed", "framed_embedded"
            return "bare", "bare_relative"
        if len(heads) == 1 and subject:
            if flags[heads[0]] & (MODAL | PRESENT):
                return "elliptical", "elliptical_image"
        return None

    def _fragment_predicate(self, clause: Clause) -> bool:
        """A verbless continuation that predicates something of the NP."""
        norms, flags, _ = clause
        bits = _union(flags)
        if not bits & WORD or bits & FINITE:
            return False
        return not self._directive_continuation(norms, flags)

    def _quoted_definition(self, clause: Clause) -> NounPhrase | None:
        """The group NP that follows a quote opening the clause, when the
        clause ends with it."""
        norms, flags, _ = clause
        if not norms or norms[0] != QUOTE:
            return None
        closes = [k for k in range(1, len(norms)) if norms[k] == QUOTE]
        if not closes:
            return None
        word_after = [k for k in range(closes[-1] + 1, len(norms)) if flags[k] & WORD]
        if not word_after:
            return None
        head = None
        for k in word_after:
            if flags[k] & GROUP_NOUN:
                head = k
            elif not flags[k] & ABSORBABLE:
                return None
        if head is None:
            return None
        return NounPhrase(word_after[0], head, quantified=False, prep_before=False)

    # --- anaphora --------------------------------------------------------------

    def _anaphoric_pass(
        self, clauses: list[Clause], state: "_ScanState"
    ) -> AnnotatorVerdict | None:
        if state.first_np is None:
            return None
        hedges = self.lexicons.hedge_adverbs
        for ci, (norms, flags, start) in enumerate(clauses):
            if norms[-1] == QUESTION or THEY.isdisjoint(norms):
                continue
            for j, norm in enumerate(norms):
                if norm not in THEY:
                    continue
                if not flags[j] & WORD or (ci, j) <= state.first_np:
                    continue
                if norm == "they":
                    k = j + 1
                    hedged = False
                    while k < len(norms) and norms[k] in self._adverbials:
                        if norms[k] in hedges:
                            hedged = True
                        k += 1
                    # a modal or a present-only verb makes the predicate
                    if k == len(norms) or not (
                        norms[k] in MODAL_RULES or flags[k] & (PRESENT | PAST) == PRESENT
                    ):
                        continue
                    kind = "hedged" if hedged or norms[k] in HEDGE_MODALS else "bare"
                else:
                    kind = "hedged" if norm in ("they'll", "they'd") else "bare"
                return _generic(kind, "anaphoric_subject", start + j, start + j)
        return None


@dataclass(slots=True)
class _ScanState:
    first_np: tuple[int, int] | None = None  # (clause, head) of the first group NP
    saw_quantified_np: bool = False
    bits: int = 0  # every flag of the clauses scanned

    def fallback_screen(self) -> AnnotatorVerdict:
        """The screen verdict of a text that no pattern made generic."""
        if self.first_np is not None and not self.bits & FINITE:
            return _screen("screen:bare_np")
        if self.bits & PAST and not self.bits & (PRESENT | MODAL):
            return _screen("screen:past_tense")
        if self.saw_quantified_np:
            return _screen("screen:quantified")
        if self.first_np is None:
            return _screen("screen:no_group")
        return _screen("screen:no_ascription")
