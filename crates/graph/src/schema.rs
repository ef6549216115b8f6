//! The schema catalog: vertex types, edge types, embedding attributes and
//! embedding spaces.

use std::collections::HashMap;
use tg_storage::AttrSchema;
use tv_common::{TvError, TvResult};
use tv_embedding::{EmbeddingSpace, EmbeddingTypeDef};

/// A vertex type: name, attribute schema, and its embedding attributes.
#[derive(Debug, Clone)]
pub struct VertexTypeDef {
    /// Type name (e.g. `Post`).
    pub name: String,
    /// Catalog / store id.
    pub type_id: u32,
    /// Ordinary attribute schema.
    pub schema: AttrSchema,
    /// Embedding attributes attached to this type: `(service attr id, def)`.
    pub embeddings: Vec<(u32, EmbeddingTypeDef)>,
}

impl VertexTypeDef {
    /// Find an embedding attribute by name.
    #[must_use]
    pub fn embedding(&self, name: &str) -> Option<(u32, &EmbeddingTypeDef)> {
        self.embeddings
            .iter()
            .find(|(_, d)| d.name == name)
            .map(|(id, d)| (*id, d))
    }
}

/// A directed edge type between two vertex types.
#[derive(Debug, Clone)]
pub struct EdgeTypeDef {
    /// Type name (e.g. `knows`).
    pub name: String,
    /// Catalog id (also the storage `etype`).
    pub etype_id: u32,
    /// Source vertex type.
    pub from_type: u32,
    /// Target vertex type.
    pub to_type: u32,
}

/// The schema catalog.
#[derive(Debug, Default)]
pub struct Catalog {
    vertex_types: Vec<VertexTypeDef>,
    vertex_by_name: HashMap<String, u32>,
    edge_types: Vec<EdgeTypeDef>,
    edge_by_name: HashMap<String, u32>,
    spaces: HashMap<String, EmbeddingSpace>,
}

impl Catalog {
    /// Register a vertex type (store id must match registration order).
    pub(crate) fn add_vertex_type(
        &mut self,
        name: &str,
        type_id: u32,
        schema: AttrSchema,
    ) -> TvResult<()> {
        if self.vertex_by_name.contains_key(name) {
            return Err(TvError::Schema(format!("vertex type '{name}' exists")));
        }
        if type_id as usize != self.vertex_types.len() {
            return Err(TvError::Schema(format!(
                "vertex type id {type_id} out of order"
            )));
        }
        self.vertex_by_name.insert(name.to_string(), type_id);
        self.vertex_types.push(VertexTypeDef {
            name: name.to_string(),
            type_id,
            schema,
            embeddings: Vec::new(),
        });
        Ok(())
    }

    /// Register an edge type.
    pub(crate) fn add_edge_type(
        &mut self,
        name: &str,
        from_type: u32,
        to_type: u32,
    ) -> TvResult<u32> {
        if self.edge_by_name.contains_key(name) {
            return Err(TvError::Schema(format!("edge type '{name}' exists")));
        }
        if from_type as usize >= self.vertex_types.len()
            || to_type as usize >= self.vertex_types.len()
        {
            return Err(TvError::Schema(format!(
                "edge type '{name}' references unknown vertex type"
            )));
        }
        let etype_id = self.edge_types.len() as u32;
        self.edge_by_name.insert(name.to_string(), etype_id);
        self.edge_types.push(EdgeTypeDef {
            name: name.to_string(),
            etype_id,
            from_type,
            to_type,
        });
        Ok(etype_id)
    }

    /// Attach an embedding attribute to a vertex type.
    pub(crate) fn attach_embedding(
        &mut self,
        type_id: u32,
        attr_id: u32,
        def: EmbeddingTypeDef,
    ) -> TvResult<()> {
        let vt = self
            .vertex_types
            .get_mut(type_id as usize)
            .ok_or_else(|| TvError::NotFound(format!("vertex type {type_id}")))?;
        if vt.embeddings.iter().any(|(_, d)| d.name == def.name) {
            return Err(TvError::Schema(format!(
                "embedding '{}' already on '{}'",
                def.name, vt.name
            )));
        }
        vt.embeddings.push((attr_id, def));
        Ok(())
    }

    /// Register an embedding space (`CREATE EMBEDDING SPACE`).
    pub(crate) fn add_space(&mut self, space: EmbeddingSpace) -> TvResult<()> {
        if self.spaces.contains_key(&space.name) {
            return Err(TvError::Schema(format!(
                "embedding space '{}' exists",
                space.name
            )));
        }
        self.spaces.insert(space.name.clone(), space);
        Ok(())
    }

    /// Look up an embedding space.
    pub(crate) fn space(&self, name: &str) -> TvResult<&EmbeddingSpace> {
        self.spaces
            .get(name)
            .ok_or_else(|| TvError::NotFound(format!("embedding space '{name}'")))
    }

    /// Vertex type by name.
    pub fn vertex_type(&self, name: &str) -> TvResult<&VertexTypeDef> {
        self.vertex_by_name
            .get(name)
            .map(|&id| &self.vertex_types[id as usize])
            .ok_or_else(|| TvError::NotFound(format!("vertex type '{name}'")))
    }

    /// Vertex type by id.
    pub fn vertex_type_by_id(&self, id: u32) -> TvResult<&VertexTypeDef> {
        self.vertex_types
            .get(id as usize)
            .ok_or_else(|| TvError::NotFound(format!("vertex type {id}")))
    }

    /// Edge type by name.
    pub fn edge_type(&self, name: &str) -> TvResult<&EdgeTypeDef> {
        self.edge_by_name
            .get(name)
            .map(|&id| &self.edge_types[id as usize])
            .ok_or_else(|| TvError::NotFound(format!("edge type '{name}'")))
    }

    /// Edge type by catalog id.
    pub(crate) fn edge_type_by_id(&self, id: u32) -> TvResult<&EdgeTypeDef> {
        self.edge_types
            .get(id as usize)
            .ok_or_else(|| TvError::NotFound(format!("edge type id {id}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_storage::AttrType;
    use tv_common::DistanceMetric;
    use tv_embedding::{IndexKind, VectorDataType};

    fn schema() -> AttrSchema {
        AttrSchema::new([("name".to_string(), AttrType::Str)]).unwrap()
    }

    #[test]
    fn vertex_and_edge_registration() {
        let mut c = Catalog::default();
        c.add_vertex_type("Person", 0, schema()).unwrap();
        c.add_vertex_type("Post", 1, schema()).unwrap();
        let knows = c.add_edge_type("knows", 0, 0).unwrap();
        let created = c.add_edge_type("hasCreator", 1, 0).unwrap();
        assert_eq!(knows, 0);
        assert_eq!(created, 1);
        assert_eq!(c.vertex_type("Post").unwrap().type_id, 1);
        assert_eq!(c.edge_type("knows").unwrap().from_type, 0);
        assert!(c.vertex_type("Nope").is_err());
        assert!(c.edge_type("nope").is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut c = Catalog::default();
        c.add_vertex_type("Person", 0, schema()).unwrap();
        assert!(c.add_vertex_type("Person", 1, schema()).is_err());
        c.add_edge_type("knows", 0, 0).unwrap();
        assert!(c.add_edge_type("knows", 0, 0).is_err());
    }

    #[test]
    fn out_of_order_type_id_rejected() {
        let mut c = Catalog::default();
        assert!(c.add_vertex_type("Person", 5, schema()).is_err());
    }

    #[test]
    fn edge_to_unknown_type_rejected() {
        let mut c = Catalog::default();
        c.add_vertex_type("Person", 0, schema()).unwrap();
        assert!(c.add_edge_type("knows", 0, 7).is_err());
    }

    #[test]
    fn embedding_attachment_and_lookup() {
        let mut c = Catalog::default();
        c.add_vertex_type("Post", 0, schema()).unwrap();
        let def = EmbeddingTypeDef::new("content_emb", 128, "GPT4", DistanceMetric::Cosine);
        c.attach_embedding(0, 0, def.clone()).unwrap();
        let vt = c.vertex_type("Post").unwrap();
        let (attr_id, got) = vt.embedding("content_emb").unwrap();
        assert_eq!(attr_id, 0);
        assert_eq!(got, &def);
        assert!(vt.embedding("other").is_none());
        // Duplicate embedding name rejected.
        assert!(c.attach_embedding(0, 1, def).is_err());
    }

    #[test]
    fn spaces_register_and_mint() {
        let mut c = Catalog::default();
        let space = EmbeddingSpace {
            name: "GPT4_emb_space".into(),
            dimension: 1024,
            model: "GPT4".into(),
            index: IndexKind::Hnsw,
            datatype: VectorDataType::Float,
            metric: DistanceMetric::Cosine,
            quant: tv_common::QuantSpec::f32(),
            layout: tv_common::GraphLayout::default(),
        };
        c.add_space(space.clone()).unwrap();
        assert!(c.add_space(space).is_err());
        let got = c.space("GPT4_emb_space").unwrap();
        let attr = got.attribute("content_emb");
        assert_eq!(attr.dimension, 1024);
        assert!(c.space("missing").is_err());
    }
}
