//! The `embedding` attribute type and embedding spaces (§4.1).
//!
//! Vectors are not `LIST<FLOAT>`: the metadata — dimensionality, generating
//! model, index kind, element datatype, similarity metric — is managed
//! explicitly. The compatibility rule for multi-attribute search is the
//! paper's: *"If all aspects of the vector metadata, except for the index
//! type, are identical, the query is allowed. Otherwise, the query is
//! rejected and a semantic error is returned."*

use tv_common::{DistanceMetric, GraphLayout, QuantSpec, TvError, TvResult};

/// Which vector index backs an embedding attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IndexKind {
    /// Hierarchical Navigable Small World (the paper's choice, §4.4).
    #[default]
    Hnsw,
}

/// Element type of the stored vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VectorDataType {
    /// 32-bit float (the only type the reproduction materializes).
    #[default]
    Float,
}

/// Full metadata of one embedding attribute — what `ADD EMBEDDING ATTRIBUTE`
/// declares.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingTypeDef {
    /// Attribute name (e.g. `content_emb`).
    pub name: String,
    /// Vector dimensionality (e.g. 1024).
    pub dimension: usize,
    /// Generating model tag (e.g. `GPT4`). Compatibility requires equality.
    pub model: String,
    /// Index kind; the one field allowed to differ between compatible
    /// attributes.
    pub index: IndexKind,
    /// Element datatype.
    pub datatype: VectorDataType,
    /// Similarity metric.
    pub metric: DistanceMetric,
    /// Storage tier for the attribute's segments (f32 / SQ8 / PQ) plus
    /// exact-rerank policy. Defaults to full-precision f32.
    pub quant: QuantSpec,
    /// Search-time graph layout at segment merge/rebuild: every row left a
    /// per-node edit (`pointer`), or folded into CSR rows in BFS order and
    /// searched with software prefetch. Purely an execution knob — it never
    /// affects compatibility or results.
    pub layout: GraphLayout,
}

impl EmbeddingTypeDef {
    /// Convenience constructor with HNSW/Float defaults.
    #[must_use]
    pub fn new(name: &str, dimension: usize, model: &str, metric: DistanceMetric) -> Self {
        EmbeddingTypeDef {
            name: name.to_string(),
            dimension,
            model: model.to_string(),
            index: IndexKind::Hnsw,
            datatype: VectorDataType::Float,
            metric,
            quant: QuantSpec::f32(),
            layout: GraphLayout::default(),
        }
    }

    /// Builder: set the quantized-storage spec.
    #[must_use]
    pub fn with_quant(mut self, quant: QuantSpec) -> Self {
        self.quant = quant;
        self
    }

    /// Builder: set the compiled search-graph layout.
    #[must_use]
    pub fn with_layout(mut self, layout: GraphLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Validate the definition.
    pub(crate) fn validate(&self) -> TvResult<()> {
        if self.name.is_empty() {
            return Err(TvError::Schema("embedding attribute needs a name".into()));
        }
        if self.dimension == 0 {
            return Err(TvError::Schema(format!(
                "embedding '{}' must have non-zero dimension",
                self.name
            )));
        }
        Ok(())
    }

    /// The paper's compatibility rule: everything but the index kind must
    /// match for two attributes to be searched together.
    #[must_use]
    pub(crate) fn compatible_with(&self, other: &EmbeddingTypeDef) -> bool {
        self.dimension == other.dimension
            && self.model == other.model
            && self.datatype == other.datatype
            && self.metric == other.metric
    }

    /// Check a whole set; returns a semantic error naming the first
    /// incompatible pair (what the query compiler surfaces).
    pub fn check_compatible(defs: &[&EmbeddingTypeDef]) -> TvResult<()> {
        for pair in defs.windows(2) {
            if !pair[0].compatible_with(pair[1]) {
                return Err(TvError::IncompatibleEmbeddings(format!(
                    "'{}' (dim={}, model={}, metric={}) vs '{}' (dim={}, model={}, metric={})",
                    pair[0].name,
                    pair[0].dimension,
                    pair[0].model,
                    pair[0].metric,
                    pair[1].name,
                    pair[1].dimension,
                    pair[1].model,
                    pair[1].metric,
                )));
            }
        }
        Ok(())
    }

    /// Validate a vector against this attribute — a query's, or one about
    /// to be stored: the declared dimension, every component finite and
    /// the norm bounded (`tv_common::check_finite`).
    pub fn check_query_vector(&self, v: &[f32]) -> TvResult<()> {
        check_vector(self.dimension, v)
    }
}

/// `v` has `dimension` components and passes `tv_common::check_finite`.
pub(crate) fn check_vector(dimension: usize, v: &[f32]) -> TvResult<()> {
    if v.len() != dimension {
        return Err(TvError::DimensionMismatch {
            expected: dimension,
            got: v.len(),
        });
    }
    tv_common::check_finite(v)
}

/// An embedding space: a named, shared schema for embeddings generated by
/// one model, attachable to many vertex types (`CREATE EMBEDDING SPACE`,
/// §4.1 / Fig. 2).
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingSpace {
    /// Space name (e.g. `GPT4_emb_space`).
    pub name: String,
    /// Shared dimensionality.
    pub dimension: usize,
    /// Shared model tag.
    pub model: String,
    /// Shared index kind.
    pub index: IndexKind,
    /// Shared datatype.
    pub datatype: VectorDataType,
    /// Shared metric.
    pub metric: DistanceMetric,
    /// Shared storage tier / rerank policy for minted attributes.
    pub quant: QuantSpec,
    /// Shared search-graph layout for minted attributes.
    pub layout: GraphLayout,
}

impl EmbeddingSpace {
    /// Instantiate an attribute definition in this space — `ADD EMBEDDING
    /// ATTRIBUTE ... IN EMBEDDING SPACE ...`. Attributes minted from the
    /// same space are compatible by construction.
    #[must_use]
    pub fn attribute(&self, attr_name: &str) -> EmbeddingTypeDef {
        EmbeddingTypeDef {
            name: attr_name.to_string(),
            dimension: self.dimension,
            model: self.model.clone(),
            index: self.index,
            datatype: self.datatype,
            metric: self.metric,
            quant: self.quant,
            layout: self.layout,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpt4(name: &str) -> EmbeddingTypeDef {
        EmbeddingTypeDef::new(name, 1024, "GPT4", DistanceMetric::Cosine)
    }

    #[test]
    fn same_metadata_is_compatible() {
        let a = gpt4("post_emb");
        let b = gpt4("comment_emb");
        assert!(a.compatible_with(&b));
        assert!(EmbeddingTypeDef::check_compatible(&[&a, &b]).is_ok());
    }

    #[test]
    fn dimension_mismatch_incompatible() {
        let a = gpt4("a");
        let mut b = gpt4("b");
        b.dimension = 768;
        assert!(!a.compatible_with(&b));
        let err = EmbeddingTypeDef::check_compatible(&[&a, &b]).unwrap_err();
        assert!(matches!(err, TvError::IncompatibleEmbeddings(_)));
    }

    #[test]
    fn model_mismatch_incompatible() {
        let a = gpt4("a");
        let mut b = gpt4("b");
        b.model = "BERT".into();
        assert!(!a.compatible_with(&b));
    }

    #[test]
    fn metric_mismatch_incompatible() {
        let a = gpt4("a");
        let mut b = gpt4("b");
        b.metric = DistanceMetric::L2;
        assert!(!a.compatible_with(&b));
    }

    #[test]
    fn layout_is_an_execution_knob_not_metadata() {
        // Attributes differing only in layout remain searchable together:
        // layout changes the resident representation, never the results.
        let a = gpt4("a");
        let b = gpt4("b").with_layout(GraphLayout::Pointer);
        assert_ne!(a.layout, b.layout);
        assert!(a.compatible_with(&b));
        assert!(EmbeddingTypeDef::check_compatible(&[&a, &b]).is_ok());
    }

    #[test]
    fn validate_rejects_bad_defs() {
        assert!(gpt4("ok").validate().is_ok());
        assert!(EmbeddingTypeDef::new("", 10, "m", DistanceMetric::L2)
            .validate()
            .is_err());
        assert!(EmbeddingTypeDef::new("x", 0, "m", DistanceMetric::L2)
            .validate()
            .is_err());
    }

    #[test]
    fn query_vector_dimension_checked() {
        let a = gpt4("a");
        assert!(a.check_query_vector(&vec![0.0; 1024]).is_ok());
        let err = a.check_query_vector(&[0.0; 3]).unwrap_err();
        assert!(matches!(
            err,
            TvError::DimensionMismatch {
                expected: 1024,
                got: 3
            }
        ));
    }

    #[test]
    fn space_mints_compatible_attributes() {
        let space = EmbeddingSpace {
            name: "GPT4_emb_space".into(),
            dimension: 1024,
            model: "GPT4".into(),
            index: IndexKind::Hnsw,
            datatype: VectorDataType::Float,
            metric: DistanceMetric::Cosine,
            quant: QuantSpec::f32(),
            layout: GraphLayout::default(),
        };
        let post = space.attribute("content_emb");
        let comment = space.attribute("content_emb");
        assert!(post.compatible_with(&comment));
        assert_eq!(post.dimension, 1024);
        assert_eq!(post.model, "GPT4");
    }
}
