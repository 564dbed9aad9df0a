"""Feedback-based response expansion.

Short candidate responses carry little vocabulary. Using the response as a
retrieval query, the most probable terms of the retrieved documents are
appended, so the response can match context words it never contained.
"""

from convmatch.corpus import QAPair
from convmatch.knowledge import expand_response, feedback_language_model
from convmatch.retrieval import build_index, doc_store, search
from convmatch.text import Tokenizer, tokenize

# Stopwords are dropped at tokenization time, so they never become
# expansion terms either.
tok = Tokenizer(stopwords=frozenset({"the", "and", "in", "a", "is", "that"}))

raw_pairs = [
    ("p1", "excel shows wrong date format", "open regional settings in the control panel and change the date format"),
    ("p2", "change currency symbol in excel", "regional settings control the currency symbol and separators"),
    ("p3", "windows update loops forever", "remove leftover antivirus files then retry the update"),
]
pairs = [QAPair(id=pid, question=tokenize(q, tok), answer=tokenize(a, tok))
         for pid, q, a in raw_pairs]
index = build_index(pairs, "answer")
docs = doc_store(pairs, "answer")

# A terse agent response that never mentions "settings" or "panel":
response = tokenize("that is configured under regional options", tok)
print("original response:", " ".join(response))

# Step 1: the response retrieves its feedback documents.
hits = search(index, response, k=2)
print("retrieved:", [doc_id for doc_id, _ in hits])

# Step 2: a maximum-likelihood language model over those documents.
model = feedback_language_model([docs[d] for d, _ in hits])
top = sorted(model.term_probs.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
print("most probable feedback terms:", [f"{t} ({p:.3f})" for t, p in top])

# Step 3: the top terms are appended to the response.
expanded = expand_response(response, index, docs, prf_docs=2, prf_terms=4)
print("expanded response:", " ".join(expanded))
print("appended:", " ".join(expanded[len(response):]))
