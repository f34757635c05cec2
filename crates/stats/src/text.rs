//! Text features: n-gram tokenization, TF-IDF, and cosine similarity.
//!
//! SOMDedup converts metric IDs (subroutine name + metric name) into
//! numerical features using TF-IDF with 2- and 3-gram lengths (§5.5.1);
//! PairwiseDedup and root-cause analysis compute cosine similarity between
//! textual feature vectors (§5.5.2, §5.6).

use std::collections::HashMap;

/// A sparse term-weight vector.
pub type SparseVector = HashMap<String, f64>;

/// Splits text into lowercase word tokens (alphanumeric runs).
pub fn word_tokens(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|s| !s.is_empty())
        .map(|s| s.to_lowercase())
        .collect()
}

/// Character n-grams of `text` for each length in `lengths`.
///
/// The paper's metric-ID encoding uses 2- and 3-grams.
///
/// # Examples
///
/// ```
/// let grams = fbd_stats::text::char_ngrams("foo", &[2]);
/// assert_eq!(grams, vec!["fo".to_string(), "oo".to_string()]);
/// ```
pub fn char_ngrams(text: &str, lengths: &[usize]) -> Vec<String> {
    let chars: Vec<char> = text.to_lowercase().chars().collect();
    let mut grams = Vec::new();
    for &n in lengths {
        if n == 0 || chars.len() < n {
            continue;
        }
        for window in chars.windows(n) {
            grams.push(window.iter().collect());
        }
    }
    grams
}

/// Raw term-frequency vector of a token list.
pub fn term_frequencies(tokens: &[String]) -> SparseVector {
    let mut tf = SparseVector::new();
    for t in tokens {
        *tf.entry(t.clone()).or_insert(0.0) += 1.0;
    }
    let total: f64 = tf.values().sum();
    if total > 0.0 {
        for v in tf.values_mut() {
            *v /= total;
        }
    }
    tf
}

/// Cosine similarity between two sparse vectors, in `[0, 1]` for
/// non-negative weights. Returns 0 when either vector is empty or zero.
pub fn cosine_similarity(a: &SparseVector, b: &SparseVector) -> f64 {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let dot: f64 = small
        .iter()
        .filter_map(|(k, &va)| large.get(k).map(|&vb| va * vb))
        .sum();
    let na: f64 = a.values().map(|v| v * v).sum::<f64>().sqrt();
    let nb: f64 = b.values().map(|v| v * v).sum::<f64>().sqrt();
    if !(na > 0.0 && nb > 0.0) {
        0.0
    } else {
        (dot / (na * nb)).clamp(-1.0, 1.0)
    }
}

/// A TF-IDF model fitted over a corpus of documents.
#[derive(Debug, Clone, Default)]
pub struct TfIdf {
    /// Smoothed inverse document frequencies.
    idf: HashMap<String, f64>,
    /// Number of documents the model was fitted on.
    n_documents: usize,
    /// n-gram lengths used for tokenization.
    ngram_lengths: Vec<usize>,
}

impl TfIdf {
    /// Fits IDF weights over `documents` using character n-grams of the
    /// given lengths (the paper uses `[2, 3]` for metric IDs).
    pub fn fit(documents: &[&str], ngram_lengths: &[usize]) -> Self {
        let mut document_frequency: HashMap<String, usize> = HashMap::new();
        for doc in documents {
            let mut seen: Vec<String> = char_ngrams(doc, ngram_lengths);
            seen.sort();
            seen.dedup();
            for gram in seen {
                *document_frequency.entry(gram).or_insert(0) += 1;
            }
        }
        let n = documents.len();
        let idf = document_frequency
            .into_iter()
            .map(|(term, df)| {
                // Smoothed IDF keeps weights positive for ubiquitous terms.
                let w = ((1.0 + n as f64) / (1.0 + df as f64)).ln() + 1.0;
                (term, w)
            })
            .collect();
        TfIdf {
            idf,
            n_documents: n,
            ngram_lengths: ngram_lengths.to_vec(),
        }
    }

    /// Number of documents used to fit the model.
    pub fn n_documents(&self) -> usize {
        self.n_documents
    }

    /// TF-IDF vector of a document under this model. Unknown terms receive
    /// the maximum IDF (they are maximally distinctive).
    pub fn transform(&self, document: &str) -> SparseVector {
        let default_idf = ((1.0 + self.n_documents as f64) / 1.0).ln() + 1.0;
        let tokens = char_ngrams(document, &self.ngram_lengths);
        let tf = term_frequencies(&tokens);
        tf.into_iter()
            .map(|(term, f)| {
                let idf = self.idf.get(&term).copied().unwrap_or(default_idf);
                (term, f * idf)
            })
            .collect()
    }

    /// TF-IDF cosine similarity of two documents under this model.
    pub fn similarity(&self, a: &str, b: &str) -> f64 {
        cosine_similarity(&self.transform(a), &self.transform(b))
    }

    /// Projects a document to a single integer hash of its strongest terms,
    /// the scalable encoding the paper uses to avoid pairwise comparisons in
    /// SOMDedup ("we convert metric IDs into integers using TF-IDF").
    pub fn integer_signature(&self, document: &str) -> u64 {
        let v = self.transform(document);
        let mut terms: Vec<(&String, &f64)> = v.iter().collect();
        terms.sort_by(|a, b| b.1.total_cmp(a.1).then_with(|| a.0.cmp(b.0)));
        // FNV-1a over the top terms gives a stable, locality-free signature.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for (term, _) in terms.into_iter().take(8) {
            for byte in term.as_bytes() {
                hash ^= *byte as u64;
                hash = hash.wrapping_mul(0x1000_0000_01b3);
            }
        }
        hash
    }
}

/// Builds a word-level feature vector from weighted text fields, e.g.
/// `[(title, 2.0), (summary, 1.0)]` — used by root-cause text similarity
/// (§5.6) where titles matter more than bodies.
pub fn weighted_word_vector(fields: &[(&str, f64)]) -> SparseVector {
    let mut v = SparseVector::new();
    for (text, weight) in fields {
        for token in word_tokens(text) {
            *v.entry(token).or_insert(0.0) += weight;
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_tokens_splits_punctuation() {
        let t = word_tokens("Fix foo::bar, loosen-constraints (v2)");
        assert_eq!(t, vec!["fix", "foo", "bar", "loosen", "constraints", "v2"]);
    }

    #[test]
    fn ngrams_of_short_string() {
        assert!(char_ngrams("a", &[2, 3]).is_empty());
        assert_eq!(char_ngrams("ab", &[2, 3]), vec!["ab".to_string()]);
    }

    #[test]
    fn cosine_identical_is_one() {
        let v = term_frequencies(&word_tokens("alpha beta gamma"));
        assert!((cosine_similarity(&v, &v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_disjoint_is_zero() {
        let a = term_frequencies(&word_tokens("alpha beta"));
        let b = term_frequencies(&word_tokens("gamma delta"));
        assert!(cosine_similarity(&a, &b) == 0.0);
    }

    #[test]
    fn tfidf_similar_names_score_high() {
        let corpus = vec![
            "ServiceA::handleRequest.cpu",
            "ServiceA::handleRequest.latency",
            "ServiceB::processQueue.cpu",
            "Database::query.throughput",
        ];
        let model = TfIdf::fit(&corpus, &[2, 3]);
        let same_subroutine = model.similarity(
            "ServiceA::handleRequest.cpu",
            "ServiceA::handleRequest.latency",
        );
        let different =
            model.similarity("ServiceA::handleRequest.cpu", "Database::query.throughput");
        assert!(same_subroutine > different + 0.2);
        assert!(same_subroutine > 0.5);
    }

    #[test]
    fn tfidf_downweights_ubiquitous_terms() {
        // "cpu" appears in every doc; its grams should matter less than the
        // distinctive subroutine names.
        let corpus = vec!["aaa.cpu", "bbb.cpu", "ccc.cpu", "ddd.cpu"];
        let model = TfIdf::fit(&corpus, &[3]);
        let shared_suffix = model.similarity("aaa.cpu", "bbb.cpu");
        assert!(shared_suffix < 0.8, "similarity = {shared_suffix}");
    }

    #[test]
    fn integer_signature_stable_and_distinct() {
        let corpus = vec!["foo.cpu", "bar.cpu", "baz.mem"];
        let model = TfIdf::fit(&corpus, &[2, 3]);
        assert_eq!(
            model.integer_signature("foo.cpu"),
            model.integer_signature("foo.cpu")
        );
        assert_ne!(
            model.integer_signature("foo.cpu"),
            model.integer_signature("baz.mem")
        );
    }

    #[test]
    fn weighted_fields_bias_similarity() {
        let a = weighted_word_vector(&[("loosening constraints for foo", 2.0)]);
        let b = weighted_word_vector(&[("regression in subroutine foo", 1.0)]);
        let c = weighted_word_vector(&[("unrelated database migration", 1.0)]);
        assert!(cosine_similarity(&a, &b) > cosine_similarity(&a, &c));
    }

    #[test]
    fn empty_vectors_similarity_zero() {
        let empty = SparseVector::new();
        let v = term_frequencies(&word_tokens("x"));
        assert!(cosine_similarity(&empty, &v) == 0.0);
    }
}
