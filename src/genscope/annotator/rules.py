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

The past-tense screen is implemented as a fallback rather than a gate:
a text whose only finite verbs are past can still carry an implied
present copula (colon, "=", "be like"), and those elliptical cues must
win, so they fire first.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InputError
from .lexicons import RuleLexicons
from .normalize import (
    BLANK,
    COLON,
    COMMA,
    EMOJI,
    EQUALS,
    QUOTE,
    URL,
    WORD,
    Token,
    WordTable,
    normalize,
)

GENERIC = "generic"
NON_GENERIC = "non_generic"

KINDS = ("bare", "framed", "hedged", "elliptical")
EXCLUSION_REASONS = (
    "past_tense_only",
    "quantified_subject",
    "conditional",
    "question",
    "shoutout",
    "no_feature_ascription",
    "no_group_subject",
)

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
FRAME_WORDS = frozenset("breaking news report update alert reminder psa".split())
# closed-class words that never sit inside a noun phrase
NON_NP_WORDS = (
    PRONOUNS | DETERMINERS | PREPOSITIONS | CONJUNCTIONS | SKIP_JOINERS
    | ADVERBS | NEGATIONS | {INFINITIVE_MARKER}
)

# per-word-type flag bits (``Token.flags``), set once per norm by
# ``RuleAnnotator._classify``; tokens that are not words have none
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


@dataclass
class AnnotatorVerdict:
    label: str
    kind: str | None = None
    exclusion_reason: str | None = None
    matched_rule: str = ""
    subject_span: tuple[int, int] | None = None

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


@dataclass(slots=True)
class NounPhrase:
    start: int  # token index of the first NP token
    head: int  # token index of the group noun
    quantified: bool
    prep_before: bool


def _is_laughter(token: str) -> bool:
    if len(token) < 3:
        return False
    letters = set(token)
    return letters <= {"a", "h"} or letters <= {"l", "o"} or (
        token.startswith("lma") and letters <= {"l", "m", "a", "o"}
    )


def _next_flagged(clause: list[Token], start: int, mask: int) -> int | None:
    """Index of the first token from ``start`` on with a flag in ``mask``,
    skipping each to-infinitive (including 'to ADV verb'), or None."""
    j = start
    n = len(clause)
    while j < n:
        t = clause[j]
        if t.norm == INFINITIVE_MARKER:
            j += 1
            while j < n and clause[j].norm in ADVERBS:
                j += 1
            j += 1  # the infinitive verb itself is non-finite
        elif t.flags & mask:
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
        if t in HEDGE_MODALS or t in BARE_MODALS:
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

    def _find_nps(self, clause: list[Token]) -> list[NounPhrase]:
        nps: list[NounPhrase] = []
        for i, token in enumerate(clause):
            if not token.flags & GROUP_NOUN:
                continue
            # absorb premodifiers leftward
            start = i
            while start > 0 and clause[start - 1].flags & (ABSORBABLE | GROUP_NOUN):
                start -= 1
            # merge NPs that share one span (conjoined heads keep the first)
            if nps and start <= nps[-1].head:
                continue
            before = clause[start - 1] if start > 0 else None
            quantified = False
            if before is not None:
                if before.flags & QUANTIFIER:
                    quantified = True
                elif before.norm == "of" and start > 1 and clause[start - 2].flags & QUANTIFIER:
                    quantified = True  # "the majority of Ks"
            prep_before = before is not None and before.norm in PREPOSITIONS
            nps.append(
                NounPhrase(
                    start=start,
                    head=i,
                    quantified=quantified,
                    prep_before=prep_before,
                )
            )
        return nps

    # --- the public operations -------------------------------------------

    def annotate(self, text: str, matches=None) -> AnnotatorVerdict:
        """The verdict on one text; ``matches``, when given, is ``lex(text)``."""
        if not text or not text.strip():
            raise InputError("cannot annotate empty text")
        clauses = normalize(text, self.words, matches).clauses
        if not clauses:
            return AnnotatorVerdict(
                label=NON_GENERIC,
                exclusion_reason="no_group_subject",
                matched_rule="screen:empty",
            )

        screen = self._opener_screen(clauses)
        if screen is not None:
            return screen
        # each clause's NPs, shared by the shoutout screen and the scan
        nps = [self._find_nps(clause) for clause in clauses]
        screen = self._shoutout_screen(clauses, nps)
        if screen is not None:
            return screen

        state = _ScanState()
        for ci, clause in enumerate(clauses):
            if clause and clause[-1].kind == "?":
                continue  # question clauses never assert a generic
            verdict = self._scan_clause(clauses, ci, state, nps[ci])
            if verdict is not None:
                return verdict

        verdict = self._anaphoric_pass(clauses, state)
        if verdict is not None:
            return verdict

        return self._fallback_reason(clauses, state)

    # --- screens -----------------------------------------------------------

    def _opener_screen(self, clauses: list[list[Token]]) -> AnnotatorVerdict | None:
        first = clauses[0]
        opener = next((t.norm for t in first if t.kind == WORD), None)
        if opener is not None:
            if opener in ("if", "unless"):
                return AnnotatorVerdict(
                    label=NON_GENERIC,
                    exclusion_reason="conditional",
                    matched_rule="screen:conditional",
                )
            if opener in AUX_INVERSION_OPENERS:
                return AnnotatorVerdict(
                    label=NON_GENERIC,
                    exclusion_reason="question",
                    matched_rule="screen:question_inversion",
                )
            ends_question = first and first[-1].kind == "?"
            if ends_question and (opener in WH_OPENERS or len(clauses) == 1):
                return AnnotatorVerdict(
                    label=NON_GENERIC,
                    exclusion_reason="question",
                    matched_rule="screen:question_mark",
                )
        return None

    def _directive_continuation(self, tokens: list[Token]) -> bool:
        words = [t for t in tokens if t.kind == WORD]
        if not words:
            return False
        if words[0].norm in IMPERATIVE_VERBS or words[0].norm in SECOND_PERSON:
            return True
        if any(t.norm in SECOND_PERSON for t in words):
            return True
        hits = sum(1 for t in words if t.flags & INTERJECTION)
        return hits * 2 >= len(words)

    def _shoutout_screen(
        self, clauses: list[list[Token]], nps: list[list[NounPhrase]]
    ) -> AnnotatorVerdict | None:
        for ci, clause in enumerate(clauses):
            if not nps[ci]:
                continue
            np = nps[ci][0]
            if np.prep_before or np.quantified:
                continue
            if any(t.flags & FINITE for t in clause[: np.start]):
                continue
            # tokens between the head and a comma must stay NP-internal
            j = np.head + 1
            while j < len(clause) and clause[j].flags & (GROUP_NOUN | GROUP_MODIFIER):
                j += 1
            if j < len(clause) and clause[j].kind == COMMA:
                if self._directive_continuation(clause[j + 1 :]):
                    return AnnotatorVerdict(
                        label=NON_GENERIC,
                        exclusion_reason="shoutout",
                        matched_rule="screen:shoutout_comma",
                    )
            # bare-NP clause followed by a directive clause; a relative
            # postmodifier ("Ks who ...") does not predicate anything
            if ci + 1 == len(clauses):
                break  # no clause follows
            rest_words = [t for t in clause[np.head + 1 :] if t.kind == WORD]
            if rest_words and rest_words[0].norm in ("who", "that", "which"):
                rest_has_content = False
            else:
                rest_has_content = any(not t.flags & INTERJECTION for t in rest_words)
            if (
                not rest_has_content
                and not any(t.flags & PRESENT for t in clause)
                and self._directive_continuation(clauses[ci + 1])
            ):
                return AnnotatorVerdict(
                    label=NON_GENERIC,
                    exclusion_reason="shoutout",
                    matched_rule="screen:shoutout_clause",
                )
        return None

    # --- clause scan ---------------------------------------------------------

    def _scan_clause(
        self,
        clauses: list[list[Token]],
        ci: int,
        state: "_ScanState",
        nps: list[NounPhrase],
    ) -> AnnotatorVerdict | None:
        clause = clauses[ci]
        state.note_clause(clause)

        frame = self._has_frame_prefix(clause)
        if frame:
            # the headline prefix is not part of the clause proper
            colon_at = next(i for i, t in enumerate(clause[:4]) if t.kind == COLON)
            clause = clause[colon_at + 1 :]
            nps = self._find_nps(clause)
        for np in nps:
            state.saw_group_np = True
            state.np_positions.append((ci, np.head))
            if np.quantified:
                state.saw_quantified_np = True
                continue
            verdict = self._try_patterns(clauses, ci, clause, np, frame)
            if verdict is not None:
                return verdict
        # quoted definition: "…" + a trailing group NP names the picture
        verdict = self._quoted_definition(clause)
        if verdict is not None:
            return verdict
        return None

    def _has_frame_prefix(self, clause: list[Token]) -> bool:
        head = clause[:4]
        return any(t.kind == COLON for t in head) and any(
            t.norm in FRAME_WORDS for t in head
        )

    def _subject_position(self, clause: list[Token], np: NounPhrase) -> bool:
        if np.prep_before:
            return False
        return not any(t.flags & FINITE for t in clause[: np.start])

    def _generic(self, kind, rule, clause, np) -> AnnotatorVerdict:
        span = (clause[np.start].start, clause[np.head].end)
        return AnnotatorVerdict(
            label=GENERIC, kind=kind, matched_rule=rule, subject_span=span
        )

    def _try_patterns(
        self,
        clauses: list[list[Token]],
        ci: int,
        clause: list[Token],
        np: NounPhrase,
        frame: bool,
    ) -> AnnotatorVerdict | None:
        lex = self.lexicons
        subject = self._subject_position(clause, np)
        # a verb (finite or gerund) left of the NP marks true embedding
        embedded = not subject or any(t.flags & GERUND for t in clause[: np.start])

        # "be like" anywhere after the NP is the strongest elliptical cue
        for j in range(np.head + 1, len(clause) - 1):
            if clause[j].norm == "be" and clause[j + 1].norm == "like":
                return self._generic("elliptical", "elliptical_be_like", clause, np)

        hedge_seen = False
        j = np.head + 1
        # NP-internal and conjunct material between head and predicate
        while j < len(clause):
            t = clause[j]
            if (
                t.kind in (COMMA, EMOJI, QUOTE)
                or t.norm in SKIP_JOINERS
                or t.norm in NP_NOISE
                or t.flags & (GROUP_NOUN | GROUP_MODIFIER)
            ):
                j += 1
                continue
            break

        adverb_run = False
        while j < len(clause):
            t = clause[j]
            norm = t.norm

            if t.kind == WORD and (norm in ADVERBS or norm in lex.hedge_adverbs or norm in NEGATIONS):
                if norm in lex.hedge_adverbs:
                    hedge_seen = True
                adverb_run = True
                j += 1
                continue

            if t.kind == COLON:
                if subject:
                    return self._generic("elliptical", "elliptical_colon", clause, np)
                return None
            if t.kind == EQUALS:
                if subject:
                    return self._generic("elliptical", "elliptical_equals", clause, np)
                return None
            if t.kind == BLANK:
                if subject:
                    return self._generic("elliptical", "elliptical_blank", clause, np)
                return None

            if norm == "be":
                return self._generic("elliptical", "elliptical_habitual_be", clause, np)

            if norm in BARE_MODALS:
                return self._generic("bare", "should_construction", clause, np)
            if norm in HEDGE_MODALS:
                return self._generic("hedged", "hedged_modal", clause, np)

            flags = t.flags
            if flags & PAST:
                return None  # past predicate; the fallback screens decide

            if flags & PRESENT:
                if norm in PRESENT_COPULAS or norm in CONTRACTED_COPULAS:
                    if not self._copula_has_content(clause, j + 1):
                        return None
                kind = "hedged" if hedge_seen else ("framed" if (frame or embedded) else "bare")
                rule = "hedged_adverb" if hedge_seen else ("framed_embedded" if kind == "framed" else "bare_present")
                return self._generic(kind, rule, clause, np)

            if flags & GERUND:
                if not subject:
                    return None
                if norm in REPORTING_GERUNDS:
                    return self._generic(
                        "framed" if frame else "elliptical",
                        "elliptical_reporting_gerund",
                        clause,
                        np,
                    )
                if _next_flagged(clause, j + 1, FINITE) is None:
                    kind = "framed" if frame else "elliptical"
                    return self._generic(kind, "elliptical_gerund", clause, np)
                return None  # the gerund phrase, not the group, is the subject

            if norm in ("who", "that", "which"):
                return self._relative_pattern(clause, np, j, frame, subject)

            if norm == "when" and subject:
                return self._generic("elliptical", "elliptical_when", clause, np)

            if norm in PREPOSITIONS and subject:
                # a PP postmodifier: jump over it to the predicate, if any
                k = _next_flagged(clause, j + 1, FINITE | GERUND)
                if k is not None:
                    j = k
                    adverb_run = False
                    continue
                if j + 1 < len(clause):
                    return self._generic("elliptical", "elliptical_image", clause, np)
                return None

            if norm in DETERMINERS and subject:
                return self._generic("elliptical", "elliptical_missing_copula", clause, np)

            if adverb_run and subject:
                if _next_flagged(clause, j, FINITE) is None:
                    return self._generic(
                        "elliptical", "elliptical_missing_copula", clause, np
                    )
                j += 1
                continue

            if t.kind in (EMOJI, URL, QUOTE) or t.kind == COMMA:
                j += 1
                continue

            return None  # bare compound or other non-predicating continuation

        # clause ends right after the NP
        if subject and not np.prep_before:
            nxt = clauses[ci + 1] if ci + 1 < len(clauses) else None
            if nxt is None:
                return None
            nxt_words = [t.norm for t in nxt if t.kind == WORD]
            if nxt_words[:1] == ["be"]:
                if nxt_words[1:2] == ["like"]:
                    return self._generic("elliptical", "elliptical_be_like", clause, np)
                return self._generic("elliptical", "elliptical_habitual_be", clause, np)
            if self._fragment_predicate(nxt):
                return self._generic("elliptical", "elliptical_np_fragment", clause, np)
        return None

    def _copula_has_content(self, clause: list[Token], start: int) -> bool:
        """A copula needs a contentful complement ("are about whether" has none)."""
        for t in clause[start:]:
            if t.kind in (EMOJI, BLANK, URL):
                return True
            if t.kind != WORD:
                continue
            norm = t.norm
            if (
                norm in PREPOSITIONS
                or norm in DETERMINERS
                or norm in CONJUNCTIONS
                or norm in PRONOUNS
                or norm in ADVERBS
                or norm in NEGATIONS
                or norm in ("whether", "if", "that", "how", "why", "when")
            ):
                continue
            return True
        return False

    def _relative_pattern(
        self, clause, np, rel_index, frame, subject
    ) -> AnnotatorVerdict | None:
        """NP + who/that …: the last verb group is the main predicate when
        more than one group follows; a lone present-ish relative leaves a
        postmodified NP (image caption)."""
        groups: list[list[Token]] = []
        current: list[Token] = []
        j = rel_index + 1
        while j < len(clause):
            t = clause[j]
            if t.norm == INFINITIVE_MARKER:
                j += 2
                continue
            if t.flags & (FINITE | GERUND) or t.norm in NEGATIONS:
                current.append(t)
            elif current:
                groups.append(current)
                current = []
            j += 1
        if current:
            groups.append(current)

        if len(groups) >= 2:
            # adverbial material can trail the predicate; take the last
            # group that is not past morphology as the main one
            present_groups = [g for g in groups if not g[0].flags & PAST]
            if not present_groups:
                return None
            head = present_groups[-1][0]
            if head.norm in BARE_MODALS:
                return self._generic("bare", "should_construction", clause, np)
            if head.norm in HEDGE_MODALS:
                return self._generic("hedged", "hedged_modal", clause, np)
            kind = "framed" if (frame or not subject) else "bare"
            rule = "framed_embedded" if kind == "framed" else "bare_relative"
            return self._generic(kind, rule, clause, np)
        if len(groups) == 1 and subject:
            head = groups[0][0]
            if head.flags & (MODAL | PRESENT):
                return self._generic("elliptical", "elliptical_image", clause, np)
        return None

    def _fragment_predicate(self, clause: list[Token]) -> bool:
        """A verbless continuation that predicates something of the NP."""
        words = [t for t in clause if t.kind == WORD]
        if not words:
            return False
        if any(t.flags & FINITE for t in words):
            return False
        if self._directive_continuation(clause):
            return False
        return True

    def _quoted_definition(self, clause: list[Token]) -> AnnotatorVerdict | None:
        if not clause or clause[0].kind != QUOTE:
            return None
        closes = [k for k, t in enumerate(clause[1:], start=1) if t.kind == QUOTE]
        if not closes:
            return None
        after = clause[closes[-1] + 1 :]
        word_after = [t for t in after if t.kind == WORD]
        if not word_after:
            return None
        head = None
        for t in word_after:
            if t.flags & GROUP_NOUN:
                head = t
            elif not t.flags & ABSORBABLE:
                return None
        if head is None:
            return None
        np = NounPhrase(
            start=clause.index(word_after[0]),
            head=clause.index(head),
            quantified=False,
            prep_before=False,
        )
        return self._generic("elliptical", "elliptical_quoted_definition", clause, np)

    # --- anaphora and fallbacks ------------------------------------------------

    def _anaphoric_pass(
        self, clauses: list[list[Token]], state: "_ScanState"
    ) -> AnnotatorVerdict | None:
        if not state.np_positions:
            return None
        first_np = min(state.np_positions)
        for ci, clause in enumerate(clauses):
            if clause and clause[-1].kind == "?":
                continue
            for j, t in enumerate(clause):
                if t.kind != WORD:
                    continue
                norm = t.norm
                if norm not in ("they", "they're", "they've", "they'll", "they'd"):
                    continue
                if (ci, j) <= first_np:
                    continue
                if norm != "they":
                    kind = "hedged" if norm in ("they'll", "they'd") else "bare"
                    return AnnotatorVerdict(
                        label=GENERIC, kind=kind, matched_rule="anaphoric_subject",
                        subject_span=(t.start, t.end),
                    )
                k = j + 1
                hedged = False
                while k < len(clause) and (
                    clause[k].norm in ADVERBS
                    or clause[k].norm in NEGATIONS
                    or clause[k].norm in self.lexicons.hedge_adverbs
                ):
                    if clause[k].norm in self.lexicons.hedge_adverbs:
                        hedged = True
                    k += 1
                if k >= len(clause):
                    continue
                nxt = clause[k]
                if nxt.norm in HEDGE_MODALS:
                    return AnnotatorVerdict(
                        label=GENERIC, kind="hedged", matched_rule="anaphoric_subject",
                        subject_span=(t.start, t.end),
                    )
                if nxt.norm in BARE_MODALS or nxt.flags & (PRESENT | PAST) == PRESENT:
                    return AnnotatorVerdict(
                        label=GENERIC,
                        kind="hedged" if hedged else "bare",
                        matched_rule="anaphoric_subject",
                        subject_span=(t.start, t.end),
                    )
        return None

    def _fallback_reason(
        self, clauses: list[list[Token]], state: "_ScanState"
    ) -> AnnotatorVerdict:
        if state.saw_group_np and state.past_count == 0 and state.present_count == 0:
            return AnnotatorVerdict(
                label=NON_GENERIC,
                exclusion_reason="no_feature_ascription",
                matched_rule="screen:bare_np",
            )
        if state.past_count >= 1 and state.present_count == 0:
            return AnnotatorVerdict(
                label=NON_GENERIC,
                exclusion_reason="past_tense_only",
                matched_rule="screen:past_tense",
            )
        if state.saw_quantified_np:
            return AnnotatorVerdict(
                label=NON_GENERIC,
                exclusion_reason="quantified_subject",
                matched_rule="screen:quantified",
            )
        if not state.saw_group_np:
            return AnnotatorVerdict(
                label=NON_GENERIC,
                exclusion_reason="no_group_subject",
                matched_rule="screen:no_group",
            )
        return AnnotatorVerdict(
            label=NON_GENERIC,
            exclusion_reason="no_feature_ascription",
            matched_rule="screen:no_ascription",
        )


class _ScanState:
    def __init__(self):
        self.saw_group_np = False
        self.saw_quantified_np = False
        self.present_count = 0
        self.past_count = 0
        self.np_positions: list[tuple[int, int]] = []

    def note_clause(self, clause: list[Token]):
        for t in clause:
            if t.flags & (PRESENT | MODAL):
                self.present_count += 1
            elif t.flags & PAST:
                self.past_count += 1

