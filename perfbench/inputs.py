"""Seeded input generators for the four benchmark workloads.

Every generator is a pure function of its seed and scale: the same seed
gives byte-identical inputs. The engine only ever sees the files and
records produced here.

Text mixes Japanese (kanji, kana), Latin words and numbers, with some
full-width characters and ideographic spaces so normalization has work to
do. Documents open with a cover page and a table of contents and contain
thin pages, as real scanned reports do.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from endpoint import answer_marker, gold_index, is_hard

TOPICS = (
    "売上高", "営業利益", "設備投資", "人件費", "研究開発", "物流網", "在庫回転", "品質管理",
    "安全衛生", "環境対策", "顧客満足", "海外展開", "資材調達", "内部監査", "社員研修", "広報活動",
    "情報基盤", "資金調達", "配当方針", "取締役会", "中期計画", "生産性", "省エネルギー", "災害対策",
    "労働時間", "新卒採用", "福利厚生", "地域貢献", "知的財産", "保守点検", "原価低減", "販売促進",
)
KANA = (
    "システム", "プロジェクト", "サプライチェーン", "ガバナンス", "コンプライアンス", "デジタル",
    "クラウド", "センサー", "ロボット", "データ", "プラットフォーム", "ネットワーク", "リスク",
)
LATIN = (
    "revenue", "margin", "supply", "chain", "audit", "cloud", "sensor", "logistics",
    "forecast", "kaizen", "ESG", "KPI", "ROE", "DX", "capex", "opex", "backlog", "yield",
    "throughput", "inventory", "compliance", "benchmark", "roadmap", "pilot",
)
PREDICATES = (
    "が増加した", "を見直した", "について検討を進めた", "の改善に取り組んだ", "は前年並みとなった",
    "が計画を上回った", "の体制を強化した", "に重点を置いた", "を段階的に導入した", "が減少に転じた",
)
UNITS = ("億円", "百万円", "件", "名", "拠点", "時間", "トン")
ORGS = ("北辰工業", "東和製作所", "南海物産", "西京電機", "中央化学", "大洋運輸")
SECTIONS = ("概況", "事業の状況", "設備の状況", "財務の状況", "リスク情報", "環境への取組", "人材戦略")
FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


def _number(rng: random.Random) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        return str(rng.randint(2010, 2030))
    if kind == 1:
        return f"{rng.randint(1, 999)}.{rng.randint(0, 9)}%"
    if kind == 2:
        return str(rng.randint(10, 99999))
    return f"{rng.randint(1, 9999)}.{rng.randint(0, 99):02d}"


def sentence(rng: random.Random) -> str:
    """One report-style sentence mixing JA, Latin and numbers."""
    t1, t2 = rng.sample(TOPICS, 2)
    form = rng.randrange(6)
    if form == 0:
        text = f"{rng.randint(2015, 2029)}年度の{t1}は{_number(rng)}{rng.choice(UNITS)}となり、{t2}{rng.choice(PREDICATES)}。"
    elif form == 1:
        text = f"{t1}の{rng.choice(KANA)}について、{rng.choice(LATIN)} {rng.choice(LATIN)}の観点から{rng.choice(PREDICATES)}。"
    elif form == 2:
        text = f"前年比{_number(rng)}の{t1}を記録し、{t2}{rng.choice(PREDICATES)}。"
    elif form == 3:
        text = f"{rng.choice(KANA)}による{t1}{rng.choice(PREDICATES)}（{rng.choice(LATIN)} {_number(rng)}）。"
    elif form == 4:
        text = f"{t1}と{t2}の連携では{_number(rng)}{rng.choice(UNITS)}の効果を見込み、{rng.choice(KANA)}{rng.choice(PREDICATES)}。"
    else:
        text = f"{rng.choice(LATIN).capitalize()} {rng.choice(LATIN)} {_number(rng)} として{t1}{rng.choice(PREDICATES)}。"
    if rng.random() < 0.1:
        text = text.translate(FULLWIDTH)
    if rng.random() < 0.1:
        text = text.replace("、", "、　", 1)
    return text


def paragraph(rng: random.Random, chars: int) -> str:
    parts: list[str] = []
    length = 0
    while length < chars:
        s = sentence(rng)
        parts.append(s)
        length += len(s)
        if rng.random() < 0.2:
            parts.append("\n")
    return "".join(parts)


def cover(rng: random.Random, doc_id: str) -> str:
    return f"{rng.choice(ORGS)}\n{doc_id}\n{rng.randint(2015, 2029)}年度 報告書"


def toc(rng: random.Random) -> str:
    lines = ["目次"]
    page = 2
    for i, section in enumerate(rng.sample(SECTIONS, 5), start=1):
        page += rng.randint(1, 4)
        lines.append(f"第{i}章 {section} ........ {page}")
    return "\n".join(lines)


def thin(rng: random.Random) -> str:
    return rng.choice(("（本ページは余白です）", "- 以下余白 -", "Notes", "図表 参照"))


def document(rng: random.Random, doc_id: str, pages: int, chars: int) -> list[str]:
    """Cover, table of contents, then content pages with every 12th page thin.

    Thin pages sit at fixed positions so every seed does the same amount of
    work; only the text varies.
    """
    texts = [cover(rng, doc_id), toc(rng)]
    for i in range(2, pages):
        texts.append(thin(rng) if i % 12 == 7 else paragraph(rng, chars))
    return texts


def raw_records(docs: dict[str, list[str]]) -> list[dict]:
    return [
        {"doc_id": doc_id, "page_index": i, "text": text}
        for doc_id, texts in docs.items()
        for i, text in enumerate(texts)
    ]


def write_jsonl(path: Path, records: list[dict]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


# ---------------------------------------------------------------------------
# Workload inputs


@dataclass(frozen=True)
class Scale:
    build_docs: int
    build_pages_per_doc: int
    build_chars: int
    query_docs: int
    query_pages_per_doc: int
    query_chars: int
    query_count: int
    answer_docs: int
    answer_pages_per_doc: int
    answer_questions: int
    augment_docs: int
    augment_pages_per_doc: int
    augment_quota: int


SCALES = {
    "full": Scale(
        build_docs=6, build_pages_per_doc=20, build_chars=1500,
        query_docs=50, query_pages_per_doc=30, query_chars=300, query_count=120,
        answer_docs=10, answer_pages_per_doc=10, answer_questions=80,
        augment_docs=15, augment_pages_per_doc=20, augment_quota=200,
    ),
    "tiny": Scale(
        build_docs=2, build_pages_per_doc=8, build_chars=400,
        query_docs=4, query_pages_per_doc=10, query_chars=200, query_count=20,
        answer_docs=3, answer_pages_per_doc=8, answer_questions=9,
        augment_docs=2, augment_pages_per_doc=10, augment_quota=12,
    ),
}


def build_collection(seed: int, scale: Scale) -> list[dict]:
    rng = random.Random(f"build:{seed}")
    docs = {
        f"rep{d:03d}": document(rng, f"rep{d:03d}", scale.build_pages_per_doc, scale.build_chars)
        for d in range(scale.build_docs)
    }
    return raw_records(docs)


@dataclass(frozen=True)
class Query:
    text: str
    planted: tuple[str, int] | None = None  # the page a planted phrase is on


def _nonce(rng: random.Random) -> str:
    return "".join(rng.choice("bcdfghjkmnpqrstvwxz") for _ in range(8))


def query_inputs(seed: int, scale: Scale) -> tuple[list[dict], list[Query]]:
    """Many short pages plus a fixed mix of query kinds."""
    rng = random.Random(f"query:{seed}")
    docs = {
        f"doc{d:03d}": document(rng, f"doc{d:03d}", scale.query_pages_per_doc, scale.query_chars)
        for d in range(scale.query_docs)
    }
    content = [
        (doc_id, i) for doc_id, texts in docs.items()
        for i, text in enumerate(texts) if i >= 2 and len(text) >= scale.query_chars
    ]
    queries: list[Query] = []
    # Sentence, paragraph and planted queries are a fifth each, so the median
    # and the 90th percentile fall inside one kind rather than between two.
    kinds = ("keyword", "sentence", "paragraph", "latin", "planted", "numeric", "sentence",
             "paragraph", "nomatch", "planted")
    for qi in range(scale.query_count):
        kind = kinds[qi % len(kinds)]
        if kind == "keyword":
            text = " ".join(rng.sample(TOPICS + KANA, rng.randint(1, 2)))
        elif kind == "sentence":
            text = sentence(rng)
        elif kind == "paragraph":
            text = paragraph(rng, 200)
        elif kind == "latin":
            text = " ".join(rng.sample(LATIN, rng.randint(2, 5)))
        elif kind == "numeric":
            text = " ".join(_number(rng) for _ in range(rng.randint(1, 3)))
        elif kind == "nomatch":
            text = " ".join(_nonce(rng) for _ in range(rng.randint(1, 3)))
        else:
            # Each word of the phrase also appears on one decoy page: a word
            # found on a single page would fall outside the engine's default
            # 50,000-feature vocabulary at this corpus size.
            doc_id, page = content.pop(rng.randrange(len(content)))
            words = [_nonce(rng) for _ in range(2)]
            phrase = f"固有標識 {words[0]} {words[1]}"
            docs[doc_id][page] += f"\n{phrase} はこの頁にのみ記載される。"
            for word in words:
                decoy_doc, decoy_page = rng.choice(content)
                docs[decoy_doc][decoy_page] += f"\n参考語 {word}。"
            text = f"{phrase} が記載された頁を確認したい。"
            queries.append(Query(text, (doc_id, page)))
            continue
        queries.append(Query(text))
    return raw_records(docs), queries


@dataclass(frozen=True)
class AnswerInputs:
    records: list[dict]
    questions: list[dict]  # question JSONL records (read by the engine's reader)


OPTIONS = ("第一案", "第二案", "第三案", "第四案")


def answer_inputs(seed: int, scale: Scale) -> AnswerInputs:
    """Successive-year reports sharing templated pages with different figures.

    Each question carries a code ``Q<6 digits>``; its gold page holds the
    scripted answer marker. Questions without ``doc_id`` also name the code's
    digits, which are a lexical feature of the gold page. Questions with
    ``doc_id`` only describe the templated section, so which year's page
    ranks first is left to the figures: the engine's filter-after-selection
    can leave such a question with no context at all.
    """
    rng = random.Random(f"answer:{seed}")
    years = [2015 + d for d in range(scale.answer_docs)]
    doc_ids = [f"annual{y}" for y in years]
    templates = [(section, rng.sample(TOPICS, 4)) for section in SECTIONS[:4]]
    docs: dict[str, list[str]] = {}
    template_pages: dict[str, list[int]] = {}
    for doc_id, year in zip(doc_ids, years):
        texts = [f"{rng.choice(ORGS)}\n{year}年度 年次報告書", toc(rng)]
        template_pages[doc_id] = []
        for i in range(2, scale.answer_pages_per_doc):
            if (i - 2) < len(templates):
                section, topics = templates[i - 2]
                body = "".join(
                    f"{t}は{rng.randint(100, 9999)}{UNITS[k % len(UNITS)]}であった。"
                    for k, t in enumerate(topics)
                )
                texts.append(f"{section}の概要。{body}{section}に関する記載は以上である。")
                template_pages[doc_id].append(i)
            else:
                texts.append(paragraph(rng, 500))
        docs[doc_id] = texts

    questions = []
    used_codes: set[str] = set()
    for qi in range(scale.answer_questions):
        # Exactly three questions in ten are hard for the scripted model.
        code = f"{rng.randrange(10**6):06d}"
        while code in used_codes or is_hard(code) != (qi % 10 < 3):
            code = f"{rng.randrange(10**6):06d}"
        used_codes.add(code)
        doc_id = rng.choice(doc_ids)
        with_doc = qi % 3 == 0
        if with_doc:
            page = rng.choice(template_pages[doc_id])
            section, topics = templates[page - 2]
            text = (f"照会 Q{code}: {section}の概要について、{topics[0]}と{topics[1]}の"
                    f"記載から読み取れる最も適切な選択肢はどれか。")
        else:
            page = rng.randrange(2 + len(templates), scale.answer_pages_per_doc)
            text = f"照会 Q{code}: 確認記号 {code} が付された記述によれば、最も適切な選択肢はどれか。"
        docs[doc_id][page] += f"\n{answer_marker(code)}"
        if not with_doc:
            # A second page names the code so it is a feature of the default
            # vocabulary (see query_inputs); it lacks the answer marker.
            decoy = rng.choice([d for d in doc_ids if d != doc_id] or doc_ids)
            docs[decoy][rng.randrange(2, scale.answer_pages_per_doc)] += f"\n参照番号 {code}。"
        questions.append({
            "question": text,
            "options": list(OPTIONS),
            "answer_index": gold_index(code),
            "category": ("Y/N", "Fact.", "Num")[qi % 3],
            **({"doc_id": doc_id} if with_doc else {}),
        })
    return AnswerInputs(raw_records(docs), questions)


def augment_collection(seed: int, scale: Scale) -> list[dict]:
    rng = random.Random(f"augment:{seed}")
    docs = {
        f"src{d:03d}": document(rng, f"src{d:03d}", scale.augment_pages_per_doc, 600)
        for d in range(scale.augment_docs)
    }
    return raw_records(docs)
